// Command ugolint runs the repository's solver-aware static analyzers
// (internal/analysis) and reports findings with file:line positions.
// Exit status is 1 when any finding survives //lint:ignore filtering.
//
// Usage:
//
//	go run ./cmd/ugolint ./...                 # whole module
//	go run ./cmd/ugolint ./internal/ug/...     # one subtree
//	go run ./cmd/ugolint -analyzers floatcmp,errdrop ./...
//	go run ./cmd/ugolint -hot ./...            # hot-path allocation report
//	go run ./cmd/ugolint -list                 # describe analyzers
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
)

func main() {
	var (
		list      = flag.Bool("list", false, "list analyzers and exit")
		analyzers = flag.String("analyzers", "", "comma-separated analyzer subset (default: all)")
		quiet     = flag.Bool("q", false, "suppress the summary lines")
		hot       = flag.Bool("hot", false, "hot-path mode: ranked allocation table from //ugo:hotpath roots plus hotalloc findings")
	)
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	sel, err := analysis.ByName(*analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ugolint:", err)
		os.Exit(2)
	}

	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ugolint:", err)
		os.Exit(2)
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ugolint:", err)
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := resolve(loader, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ugolint:", err)
		os.Exit(2)
	}

	broken := 0
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "ugolint: type error in %s: %v\n", pkg.PkgPath, terr)
			broken++
		}
	}

	if *hot {
		findings, rows := analysis.RunHot(pkgs)
		printHotTable(rows)
		for _, f := range findings {
			fmt.Println(f)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "ugolint: %d package(s), %d hot function(s), %d finding(s)\n",
				len(pkgs), len(rows), len(findings))
		}
		if len(findings) > 0 || broken > 0 {
			os.Exit(1)
		}
		return
	}

	findings := analysis.Run(pkgs, sel)
	for _, f := range findings {
		fmt.Println(f)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "ugolint: %d package(s), %d finding(s)\n", len(pkgs), len(findings))
		printPerAnalyzer(sel, findings)
	}
	if len(findings) > 0 || broken > 0 {
		os.Exit(1)
	}
}

// printHotTable renders the ranked hot-region table: hot functions by
// estimated allocation cost per root iteration, then the audited
// //ugo:coldpath boundaries they reference.
func printHotTable(rows []analysis.HotRow) {
	if len(rows) == 0 {
		fmt.Println("no //ugo:hotpath roots found")
		return
	}
	fmt.Printf("%-58s %5s %12s %12s %6s  %s\n", "FUNC", "DEPTH", "ALLOCS/CALL", "SCORE", "SITES", "VIA")
	for _, r := range rows {
		if r.Depth < 0 {
			fmt.Printf("%-58s %5s %12.1f %12s %6s  coldpath: %s\n", r.Func, "cold", r.AllocsPerCall, "-", "-", r.Cold)
			continue
		}
		fmt.Printf("%-58s %5d %12.1f %12.1f %6d  %s\n", r.Func, r.Depth, r.AllocsPerCall, r.Score, r.Sites, r.Via)
	}
}

// printPerAnalyzer writes one summary line per selected analyzer (plus
// the "lint" pseudo-analyzer for malformed directives, when it fired).
func printPerAnalyzer(sel []*analysis.Analyzer, findings []analysis.Finding) {
	counts := map[string]int{}
	for _, f := range findings {
		counts[f.Analyzer]++
	}
	for _, a := range sel {
		fmt.Fprintf(os.Stderr, "ugolint:   %-12s %d\n", a.Name, counts[a.Name])
		delete(counts, a.Name)
	}
	extra := make([]string, 0, len(counts))
	for name := range counts {
		extra = append(extra, name)
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Fprintf(os.Stderr, "ugolint:   %-12s %d\n", name, counts[name])
	}
}

// resolve expands CLI patterns: "./..." loads the whole module,
// "dir/..." loads the subtree under dir, anything else loads a single
// package directory or import path.
func resolve(loader *analysis.Loader, patterns []string) ([]*analysis.Package, error) {
	var out []*analysis.Package
	seen := map[string]bool{}
	add := func(pkgs ...*analysis.Package) {
		for _, p := range pkgs {
			if !seen[p.PkgPath] {
				seen[p.PkgPath] = true
				out = append(out, p)
			}
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			pkgs, err := loader.LoadAll()
			if err != nil {
				return nil, err
			}
			add(pkgs...)
		case strings.HasSuffix(pat, "/..."):
			prefix := strings.TrimSuffix(pat, "/...")
			pkgs, err := loader.LoadAll()
			if err != nil {
				return nil, err
			}
			abs, err := filepath.Abs(prefix)
			if err != nil {
				return nil, err
			}
			matched := false
			for _, p := range pkgs {
				if p.Dir == abs || strings.HasPrefix(p.Dir, abs+string(filepath.Separator)) {
					add(p)
					matched = true
				}
			}
			if !matched {
				return nil, fmt.Errorf("no packages match %q", pat)
			}
		default:
			pkg, err := loader.Load(pat)
			if err != nil {
				return nil, err
			}
			add(pkg)
		}
	}
	return out, nil
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
