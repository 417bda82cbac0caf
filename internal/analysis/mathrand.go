package analysis

import "go/ast"

// MathRand flags use of math/rand's global generator (rand.Intn,
// rand.Float64, rand.Shuffle, ...) in library code. The experiment
// harness reproduces the paper's tables, so every random decision —
// jitter in the LP, PUC instance generation, racing tie-breaks — must
// come from an explicitly seeded *rand.Rand owned by the caller. The
// global source is process-wide shared state: concurrent ParaSolvers
// interleave draws nondeterministically even with a fixed seed.
// Constructing a local generator (rand.New, rand.NewSource) is allowed.
var MathRand = &Analyzer{
	Name:    "mathrand",
	Doc:     "global math/rand generator used in library code; use a seeded *rand.Rand",
	Applies: isInternal,
	Run:     runMathRand,
}

// mathRandCtors are package-level functions that build local state
// rather than using the global generator.
var mathRandCtors = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

func runMathRand(p *Pass) {
	inspect(p, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if path, name, _ := pkgFuncOf(p.Info, call.Fun); path == "math/rand" && !mathRandCtors[name] {
			p.Reportf(call.Pos(), "rand.%s draws from the process-global generator; thread a seeded *rand.Rand instead", name)
		}
		return true
	})
}
