// Package analysis is ugolint's engine: a stdlib-only static-analysis
// framework (go/ast, go/parser, go/types, go/token) with solver-aware
// analyzers for this repository. The UG layer promises that a sequential
// SCIP-style solver becomes a *correct* parallel one with a thin glue
// file — a promise that only holds if the Supervisor–Worker layer is
// race-free and the numerical kernels follow strict tolerance
// discipline. The analyzers encode those rules so they are enforced
// mechanically on every `go test ./...` run (see selfcheck_test.go)
// rather than re-litigated in review.
//
// Findings can be suppressed for audited exceptions with an inline
// annotation on the offending line or the line directly above it:
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// The reason is mandatory; a bare ignore is itself reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one rule violation at a source position.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Pass hands one type-checked package to an analyzer.
type Pass struct {
	Fset    *token.FileSet
	Files   []*ast.File
	Pkg     *types.Package
	Info    *types.Info
	PkgPath string
	// Mod is the module-wide call graph with converged function
	// summaries; the interprocedural and dataflow analyzers consult it.
	Mod *Module

	analyzer *Analyzer
	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one named rule.
type Analyzer struct {
	Name string
	Doc  string
	// Applies filters packages by import path; nil means every package.
	Applies func(pkgPath string) bool
	Run     func(*Pass)
}

// All returns the full analyzer set in stable order: the syntactic
// and flow-driven rules first, then the ones built on the call-graph
// and dataflow summaries, then the hot-path allocation analyzer.
func All() []*Analyzer {
	return []*Analyzer{
		FloatCmp,
		LockHold,
		ErrDrop,
		MapDet,
		WallDet,
		TraceKind,
		HotAlloc,
	}
}

// ByName resolves a comma-separated analyzer list ("" means all).
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return All(), nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// RunPackage applies analyzers to one loaded package and returns the
// distinct findings that survive //lint:ignore filtering (flow-driven
// analyzers walk loop bodies twice, so a site can be reported twice
// with the same message; it is kept once). Malformed or unknown
// ignore directives are themselves reported under the pseudo-analyzer
// "lint". The call graph is built over the single package; use Run for
// whole-module summaries.
func RunPackage(pkg *Package, analyzers []*Analyzer) []Finding {
	return runPackage(pkg, BuildModule([]*Package{pkg}), analyzers)
}

func runPackage(pkg *Package, mod *Module, analyzers []*Analyzer) []Finding {
	var raw []Finding
	for _, a := range analyzers {
		if a.Applies != nil && !a.Applies(pkg.PkgPath) {
			continue
		}
		pass := &Pass{
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			PkgPath:  pkg.PkgPath,
			Mod:      mod,
			analyzer: a,
			findings: &raw,
		}
		a.Run(pass)
	}
	ig, bad := collectIgnores(pkg)
	var out []Finding
	seen := map[Finding]bool{}
	for _, f := range raw {
		if seen[f] || ig.suppresses(f) {
			continue
		}
		seen[f] = true
		out = append(out, f)
	}
	out = append(out, bad...)
	sortFindings(out)
	return out
}

// Run applies analyzers to every package and concatenates the findings.
// The interprocedural summaries are computed once over all packages, so
// a blocking call three packages deep is visible at every call site.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	mod := BuildModule(pkgs)
	var out []Finding
	for _, pkg := range pkgs {
		out = append(out, runPackage(pkg, mod, analyzers)...)
	}
	sortFindings(out)
	return out
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// ignoreSet maps file → line → analyzers suppressed at that line.
type ignoreSet map[string]map[int]map[string]bool

// suppresses reports whether finding f is covered by a directive on its
// own line or on the line directly above.
func (ig ignoreSet) suppresses(f Finding) bool {
	lines := ig[f.Pos.Filename]
	if lines == nil {
		return false
	}
	for _, ln := range [...]int{f.Pos.Line, f.Pos.Line - 1} {
		if set := lines[ln]; set != nil && set[f.Analyzer] {
			return true
		}
	}
	return false
}

const ignorePrefix = "//lint:ignore"

// collectIgnores scans every comment in the package for lint directives.
func collectIgnores(pkg *Package) (ignoreSet, []Finding) {
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}
	ig := ignoreSet{}
	var bad []Finding
	report := func(pos token.Position, msg string) {
		bad = append(bad, Finding{Analyzer: "lint", Pos: pos, Message: msg})
	}
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rest := strings.TrimPrefix(c.Text, ignorePrefix)
				if rest == "" || (rest[0] != ' ' && rest[0] != '\t') {
					continue // e.g. //lint:ignoreXYZ — not our directive
				}
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					report(pos, "malformed ignore directive: need \"//lint:ignore <analyzer> <reason>\"")
					continue
				}
				names := strings.Split(fields[0], ",")
				ok := true
				for _, n := range names {
					if !known[n] {
						report(pos, fmt.Sprintf("ignore directive names unknown analyzer %q", n))
						ok = false
					}
				}
				if !ok {
					continue
				}
				lines := ig[pos.Filename]
				if lines == nil {
					lines = map[int]map[string]bool{}
					ig[pos.Filename] = lines
				}
				set := lines[pos.Line]
				if set == nil {
					set = map[string]bool{}
					lines[pos.Line] = set
				}
				for _, n := range names {
					set[n] = true
				}
			}
		}
	}
	return ig, bad
}

// inspect walks every file in the pass, calling fn for each node; fn
// returning false prunes the subtree.
func inspect(p *Pass, fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}

// isInternal reports whether pkgPath is a library package (under
// <module>/internal/); cmd/ and examples/ binaries are excluded.
func isInternal(pkgPath string) bool {
	return strings.Contains(pkgPath, "/internal/")
}
