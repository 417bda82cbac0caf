package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MapDet flags map iterations whose order leaks into solver decisions.
// Go randomizes map iteration order per run, so an argmax over map keys
// (racing winner selection, node pool extraction), an unsorted key
// collection that later drives branching, or a floating-point reduction
// over map values (FP addition is not associative) all break UG's
// deterministic-replay contract. Three patterns are reported:
//
//   - an outer variable assigned from iteration state, unless a guard
//     inside the range compares the assigned value (a min/max
//     reduction over *values* is order-independent);
//   - map keys/values appended to an outer slice that is never sorted
//     afterwards (directly via sort/slices, or by a module helper whose
//     summary says it sorts its argument);
//   - floating-point compound assignment (+=, -=, *=, /=) accumulating
//     over the iteration.
//
// Writes keyed by the iteration key itself (res[k] = v) are order-
// independent and never reported, and constants carry no taint. The
// taint walk (dataflow.go) does the tracking: map-iteration order is the
// taint rangeHeader binds, sorting is the sanitizer that clears it, and
// the walk records the three sites while it interprets each function,
// so order laundered through a local, a tuple, a closure or a callee's
// return value is still followed. The analyzer applies to the
// coordination and solver-core packages (internal/ug..., internal/scip),
// where deterministic replay is a stated property; kernel packages own
// their algorithm-specific iteration strategies.
var MapDet = &Analyzer{
	Name:    "mapdet",
	Doc:     "map iteration order flowing into solver decisions (argmax over keys, unsorted key collection, float reduction)",
	Applies: isSolverCore,
	Run:     runMapDet,
}

// isSolverCore scopes determinism/tolerance discipline to the parallel
// coordination layer and the sequential solver core.
func isSolverCore(pkgPath string) bool {
	return strings.Contains(pkgPath, "/internal/ug") || strings.Contains(pkgPath, "/internal/scip")
}

func runMapDet(p *Pass) {
	seen := map[token.Pos]bool{}
	for _, n := range p.Mod.Funcs() {
		if n.Pkg.PkgPath != p.PkgPath {
			continue
		}
		// Loop bodies run twice, nested map ranges reach an assignment
		// through both loops, and a closure walked inline is walked
		// again on its own: one finding per position.
		for _, s := range n.orderSites {
			if !seen[s.pos] {
				seen[s.pos] = true
				p.Reportf(s.pos, "%s", s.msg)
			}
		}
	}
}

// orderSite is one order-dependence finding recorded by the taint walk.
type orderSite struct {
	pos token.Pos
	msg string
}

// orderScope is the innermost map range around the walk's position and
// the guards open inside it: only those count for the min/max exemption.
type orderScope struct {
	rs     *ast.RangeStmt // nil outside every map range
	guards []ast.Expr
}

// collection is an outer slice that map-ordered values were appended
// to, pending the end of the walk: it is reported unless it is sorted
// after end.
type collection struct {
	pos token.Pos
	obj types.Object
	end token.Pos // end of the map range
}

func (e *taintEnv) enterGuard(cond ast.Expr) { e.w.scope.guards = append(e.w.scope.guards, cond) }
func (e *taintEnv) exitGuard()               { e.w.scope.guards = e.w.scope.guards[:len(e.w.scope.guards)-1] }

// enterLoop opens a scope at a map range, and guards a for body by its
// condition; exitLoop restores the enclosing scope and its guards.
func (e *taintEnv) enterLoop(loop ast.Stmt) {
	e.w.outer = append(e.w.outer, e.w.scope)
	switch l := loop.(type) {
	case *ast.RangeStmt:
		if rangesMap(e.w.info, l) {
			e.w.scope = orderScope{rs: l}
		}
	case *ast.ForStmt:
		if l.Cond != nil {
			e.enterGuard(l.Cond)
		}
	}
}

func (e *taintEnv) exitLoop() {
	e.w.scope = e.w.outer[len(e.w.outer)-1]
	e.w.outer = e.w.outer[:len(e.w.outer)-1]
}

// checkOrder applies MapDet's rules to the assignment l = val of s
// inside a map range; t is val's taint. A variable declared inside the
// range is not checked: the walk's own taint carries its order on.
func (e *taintEnv) checkOrder(s *ast.AssignStmt, l, val ast.Expr, t Taint) {
	rs := e.w.scope.rs
	if rs == nil {
		return
	}
	obj := exprRootObj(e.w.info, l)
	if obj == nil || obj.Pos() >= rs.Pos() && obj.Pos() <= rs.End() {
		return
	}
	if call, ok := unparen(val).(*ast.CallExpr); ok && isBuiltinAppend(e.w.info, call) {
		var elems Taint
		for _, a := range call.Args[1:] {
			elems |= e.eval(a)
		}
		if elems&TaintMapOrder != 0 {
			e.w.collected = append(e.w.collected, collection{pos: s.Pos(), obj: obj, end: rs.End()})
		}
		return
	}
	if t&TaintMapOrder == 0 {
		return
	}
	// Writes keyed by the iteration state (res[k] = v) land in a
	// key-addressed slot regardless of visit order.
	if ix, ok := unparen(l).(*ast.IndexExpr); ok && e.eval(ix.Index)&TaintMapOrder != 0 {
		return
	}
	switch s.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		if isFloatExpr(e.w.info, l) {
			e.w.orderSite(s.Pos(), "float accumulation into "+exprString(l)+" over map iteration is order-dependent (FP addition is not associative); iterate sorted keys")
		}
	case token.ASSIGN:
		// A min/max reduction's guard compares the assigned value.
		if !guardOperands(e.w.scope.guards)[exprString(val)] {
			e.w.orderSite(s.Pos(), exprString(l)+" is assigned from map-iteration state under a condition that does not compare it (argmax over random key order); iterate sorted keys for deterministic replay")
		}
	}
}

func (w *taintWalker) orderSite(pos token.Pos, msg string) {
	w.n.orderSites = append(w.n.orderSites, orderSite{pos: pos, msg: msg})
}

// unsortedCollections reports each collection that no sorter saw after
// its map range ended: a direct sort.* / slices.* call, or a module
// function whose summary says it sorts its argument.
func (w *taintWalker) unsortedCollections() {
	for _, c := range w.collected {
		if w.sortedAt[c.obj] <= c.end {
			w.orderSite(c.pos, c.obj.Name()+" collects map keys/values in iteration order and is never sorted; sort it before use for deterministic replay")
		}
	}
}

// guardOperands returns the printed operands of every comparison inside
// the governing conditions.
func guardOperands(conds []ast.Expr) map[string]bool {
	out := map[string]bool{}
	for _, c := range conds {
		ast.Inspect(c, func(nd ast.Node) bool {
			be, ok := nd.(*ast.BinaryExpr)
			if !ok {
				return true
			}
			switch be.Op {
			case token.LSS, token.GTR, token.LEQ, token.GEQ, token.EQL, token.NEQ:
				out[exprString(be.X)] = true
				out[exprString(be.Y)] = true
			}
			return true
		})
	}
	return out
}

// isBuiltinAppend matches a call to the append builtin with at least one
// element argument.
func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok || len(call.Args) < 2 {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin && id.Name == "append"
}
