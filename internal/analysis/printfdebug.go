package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// PrintfDebug flags stray console output in library packages: calls to
// fmt.Print/Println/Printf, the print/println builtins, and fmt.Fprint*
// aimed at os.Stdout/os.Stderr. Solver output must route through the
// observability layer (internal/obs tracer/metrics) or the
// statistics/result path (ug.RunStats, experiments tables) — a worker
// printing from inside the search loop interleaves garbage across
// ParaSolvers and skews timing measurements. Writer-parameterized
// output (fmt.Fprintf(w, ...)) is fine. internal/obs itself is exempt:
// it IS the sanctioned output layer (sinks, table writers); cmd/ and
// examples/ binaries are already outside isInternal.
var PrintfDebug = &Analyzer{
	Name:    "printfdebug",
	Doc:     "direct console output in library packages; route through internal/obs or the statistics path",
	Applies: printfDebugApplies,
	Run:     runPrintfDebug,
}

// printfDebugApplies is isInternal minus the observability layer.
func printfDebugApplies(pkgPath string) bool {
	return isInternal(pkgPath) && !strings.Contains(pkgPath, "/internal/obs")
}

var printFuncs = map[string]bool{"Print": true, "Println": true, "Printf": true}
var fprintFuncs = map[string]bool{"Fprint": true, "Fprintln": true, "Fprintf": true}

func runPrintfDebug(p *Pass) {
	inspect(p, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if fun.Name == "print" || fun.Name == "println" {
				if _, isBuiltin := p.Info.Uses[fun].(*types.Builtin); isBuiltin {
					p.Reportf(call.Pos(), "builtin %s writes to stderr; emit an internal/obs event or route output through the statistics path", fun.Name)
				}
			}
		case *ast.SelectorExpr:
			if path, name, _ := pkgFuncOf(p.Info, fun); path == "fmt" {
				if printFuncs[name] {
					p.Reportf(call.Pos(), "fmt.%s writes to stdout from a library package; emit an internal/obs event or route output through the statistics path", name)
				}
				if fprintFuncs[name] && len(call.Args) > 0 && isStdStream(p, call.Args[0]) {
					p.Reportf(call.Pos(), "fmt.%s to %s from a library package; accept an io.Writer instead", name, exprString(call.Args[0]))
				}
			}
		}
		return true
	})
}

func isStdStream(p *Pass, e ast.Expr) bool {
	path, name, _ := pkgFuncOf(p.Info, e)
	return path == "os" && (name == "Stdout" || name == "Stderr")
}
