#!/usr/bin/env bash
# loc.sh — the size of the system, in the unit ROADMAP item 6 ("Shrink
# the system") is measured in: non-test Go lines outside bench/ and
# testdata/, per top-level package and in total.
#
#   scripts/loc.sh            # per-package table + total + glue row
#   scripts/loc.sh -total     # the total alone
#
# The glue row is the paper's headline in lines: the two app
# registrations (steiner, misdp) plus the generic core they plug into.
set -euo pipefail
cd "$(dirname "$0")/.."

# Tracked and untracked files, minus any deleted from the working tree
# but not yet staged (a deletion PR's working state).
files() {
    git ls-files -co --exclude-standard -- '*.go' |
        grep -v -e '_test\.go$' -e '^bench/' -e '/testdata/' |
        while read -r f; do [ -f "$f" ] && echo "$f"; done
}

if [ "${1:-}" = "-total" ]; then
    files | xargs cat | wc -l
    exit 0
fi

# The package is the first two path elements (cmd/ugsteiner,
# internal/ug), or "." for files at the root.
files | while read -r f; do
    case "$f" in
        */*/*) pkg=$(echo "$f" | cut -d/ -f1,2) ;;
        */*) pkg=$(dirname "$f") ;;
        *) pkg=. ;;
    esac
    echo "$pkg $(wc -l <"$f")"
done | awk '{n[$1] += $2; t += $2} END {for (p in n) printf "%7d  %s\n", n[p], p; printf "%7d  total\n", t}' | sort -k2

glue=(internal/steiner/app.go internal/misdp/app.go internal/core/core.go)
printf "%7d  glue (%s)\n" "$(cat "${glue[@]}" | wc -l)" "${glue[*]}"
