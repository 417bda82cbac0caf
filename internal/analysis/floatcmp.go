package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// FloatCmp polices float comparisons; internal/num, the eps-helper
// layer, is exempt. Two rules share one visit of every comparison:
//
//   - Raw ==/!= (and switch) on float-typed expressions. LP pivoting,
//     SDP feasibility, and B&B bound comparisons accumulate rounding
//     error; exact equality on such values is either a latent bug or an
//     exact-sentinel check that must be annotated as audited. Fixes
//     route through the tolerance helpers in internal/num. Comparisons
//     against infinity sentinels (math.Inf, Infinity constants) are
//     exempt: infinities are assigned, never computed, so equality is
//     exact.
//   - In the solver core (isSolverCore) only: a raw tolerance literal
//     (0 < |v| <= 1e-4) anywhere in a comparison, the spelling
//     `diff < 1e-9`. Scattered ad-hoc epsilons are how a parallel solver
//     ends up accepting a solution on one rank that another rank
//     rejects; every tolerance must be a named constant in internal/num
//     so feasibility, optimality-gap, and zero tests agree across the
//     coordinator, the workers, and the sequential core. Larger
//     magnitudes (branching scores, penalty weights) and literals
//     outside comparisons (step sizes, scaling factors) are not
//     tolerances.
var FloatCmp = &Analyzer{
	Name:    "floatcmp",
	Doc:     "raw ==/!= or switch on floats, or a raw tolerance literal in a solver-core comparison; use internal/num",
	Applies: isInternal,
	Run:     runFloatCmp,
}

// tolLiteralMax is the largest magnitude treated as a tolerance.
const tolLiteralMax = 1e-4

func runFloatCmp(p *Pass) {
	if strings.HasSuffix(p.PkgPath, "/num") {
		return // the eps-helper layer itself
	}
	core := isSolverCore(p.PkgPath)
	inspect(p, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			switch n.Op {
			case token.EQL, token.NEQ:
				if (isFloatExpr(p.Info, n.X) || isFloatExpr(p.Info, n.Y)) &&
					!isInfSentinel(p, n.X) && !isInfSentinel(p, n.Y) {
					p.Reportf(n.OpPos, "float comparison with %s; use a tolerance helper (internal/num) or annotate an audited exact check", n.Op)
				}
			case token.LSS, token.GTR, token.LEQ, token.GEQ:
			default:
				return true
			}
			if core {
				reportTolLiterals(p, n)
			}
		case *ast.SwitchStmt:
			if n.Tag != nil && isFloatExpr(p.Info, n.Tag) {
				p.Reportf(n.Switch, "switch on float-typed expression compares exactly; use tolerance-based branching")
			}
		}
		return true
	})
}

// reportTolLiterals reports every tolerance-sized float literal in the
// operands of comparison be.
func reportTolLiterals(p *Pass, be *ast.BinaryExpr) {
	for _, operand := range [...]ast.Expr{be.X, be.Y} {
		ast.Inspect(operand, func(x ast.Node) bool {
			if _, ok := x.(*ast.FuncLit); ok {
				return false
			}
			lit, ok := x.(*ast.BasicLit)
			if !ok {
				return true
			}
			tv, ok := p.Info.Types[lit]
			if !ok || tv.Value == nil || tv.Value.Kind() != constant.Float {
				return true
			}
			v, _ := constant.Float64Val(tv.Value)
			if v < 0 {
				v = -v
			}
			if v > 0 && v <= tolLiteralMax {
				p.Reportf(lit.Pos(), "raw tolerance literal %s in a comparison; use a named constant from internal/num (FeasTol/OptTol/ZeroTol/...) so every layer applies the same epsilon", lit.Value)
			}
			return true
		})
	}
}

// isFloatExpr reports whether e's static type is a floating-point kind.
func isFloatExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isInfSentinel recognizes expressions that denote an exact infinity:
// math.Inf(...) calls, possibly negated, and named values whose name
// spells infinity (Infinity, negInf, posInf, inf).
func isInfSentinel(p *Pass, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return isInfSentinel(p, e.X)
	case *ast.UnaryExpr:
		if e.Op == token.SUB || e.Op == token.ADD {
			return isInfSentinel(p, e.X)
		}
	case *ast.CallExpr:
		path, name, ok := pkgFuncOf(p.Info, e.Fun)
		return ok && path == "math" && name == "Inf"
	case *ast.Ident:
		return isInfName(e.Name)
	case *ast.SelectorExpr:
		return isInfName(e.Sel.Name)
	}
	return false
}

func isInfName(name string) bool {
	n := strings.ToLower(name)
	return n == "inf" || n == "neginf" || n == "posinf" || n == "infinity" ||
		strings.HasSuffix(n, "infinity")
}
