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
//   - an outer variable conditionally assigned from iteration state,
//     unless the assigned value is itself compared in the guard (a
//     min/max reduction over *values* is order-independent);
//   - map keys/values appended to an outer slice that is never sorted
//     afterwards (directly via sort/slices, or by a module helper whose
//     summary says it sorts its argument);
//   - floating-point compound assignment (+=, -=, *=, /=) accumulating
//     over the iteration.
//
// Writes keyed by the iteration key itself (res[k] = v) are order-
// independent and never reported. The analyzer applies to the
// coordination and solver-core packages (internal/ug..., internal/scip),
// where deterministic replay is a stated property; kernel packages own
// their algorithm-specific iteration strategies.
var MapDet = &Analyzer{
	Name: "mapdet",
	Doc:  "map iteration order flowing into solver decisions (argmax over keys, unsorted key collection, float reduction)",
	Applies: func(pkgPath string) bool {
		return isSolverCore(pkgPath)
	},
	Run: runMapDet,
}

// isSolverCore scopes determinism/tolerance discipline to the parallel
// coordination layer and the sequential solver core.
func isSolverCore(pkgPath string) bool {
	return strings.Contains(pkgPath, "/internal/ug") || strings.Contains(pkgPath, "/internal/scip")
}

func runMapDet(p *Pass) {
	if p.Mod == nil {
		return
	}
	for _, n := range p.Mod.Funcs() {
		if n.Pkg.PkgPath != p.PkgPath {
			continue
		}
		for _, s := range mapOrderSites(p.Mod, n) {
			p.Reportf(s.pos, "%s", s.msg)
		}
	}
}

// mapdetSite is one order-dependence finding inside a function.
type mapdetSite struct {
	pos token.Pos
	msg string
}

// mapOrderSites computes the order-dependence sites of one function:
// every range-over-map in its body analyzed for the patterns documented
// on MapDet.
func mapOrderSites(m *Module, n *FuncNode) []mapdetSite {
	body := n.body()
	if body == nil {
		return nil
	}
	info := n.Pkg.Info
	var sites []mapdetSite
	walkShallow(body, func(nd ast.Node) bool {
		rs, ok := nd.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := info.Types[rs.X]
		if !ok || tv.Type == nil {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		sites = append(sites, rangeOrderSites(m, n, rs)...)
		return true
	})
	// Nested map ranges can yield the same assignment twice (tainted by
	// both loops); keep one finding per position.
	seen := map[token.Pos]bool{}
	var dedup []mapdetSite
	for _, s := range sites {
		if seen[s.pos] {
			continue
		}
		seen[s.pos] = true
		dedup = append(dedup, s)
	}
	return dedup
}

// appendCand is a "slice collected map data" candidate awaiting the
// post-loop sortedness check.
type appendCand struct {
	pos token.Pos
	obj types.Object
}

// rangeOrderSites analyzes one range-over-map statement.
func rangeOrderSites(m *Module, n *FuncNode, rs *ast.RangeStmt) []mapdetSite {
	info := n.Pkg.Info
	// tainted holds the loop's key/value objects plus loop-local
	// variables assigned from them (one forward pass, source order).
	tainted := map[types.Object]bool{}
	addIter := func(e ast.Expr) {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		if rs.Tok == token.DEFINE {
			if o := info.Defs[id]; o != nil {
				tainted[o] = true
			}
		} else if o := info.Uses[id]; o != nil {
			tainted[o] = true
		}
	}
	if rs.Key != nil {
		addIter(rs.Key)
	}
	if rs.Value != nil {
		addIter(rs.Value)
	}

	var sites []mapdetSite
	var cands []appendCand
	loopLocal := func(obj types.Object) bool {
		return obj != nil && obj.Pos() >= rs.Pos() && obj.Pos() <= rs.End()
	}
	lhsObj := func(e ast.Expr) types.Object {
		root := rootIdent(e)
		if root == nil {
			return nil
		}
		if o := info.Uses[root]; o != nil {
			return o
		}
		return info.Defs[root]
	}
	handlePair := func(s *ast.AssignStmt, lhs, rhs ast.Expr, conds []ast.Expr) {
		obj := lhsObj(lhs)
		if obj == nil {
			return
		}
		rhsTainted := exprRefsAny(info, rhs, tainted)
		if loopLocal(obj) {
			if rhsTainted {
				tainted[obj] = true
			}
			return
		}
		// Writes keyed by the iteration key (res[k] = v) land in a
		// key-addressed slot regardless of visit order.
		if ix, ok := unparen(lhs).(*ast.IndexExpr); ok && exprRefsAny(info, ix.Index, tainted) {
			return
		}
		switch s.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			if rhsTainted && isFloatExpr(info, lhs) {
				sites = append(sites, mapdetSite{
					pos: s.Pos(),
					msg: "float accumulation into " + exprString(lhs) + " over map iteration is order-dependent (FP addition is not associative); iterate sorted keys",
				})
			}
		case token.ASSIGN:
			if !rhsTainted {
				return
			}
			if tv, ok := info.Types[rhs]; ok && tv.Value != nil {
				return // constant: flag-setting, order-independent
			}
			if guardOperands(conds)[exprString(rhs)] {
				return // min/max reduction: the guard compares the assigned value
			}
			sites = append(sites, mapdetSite{
				pos: s.Pos(),
				msg: exprString(lhs) + " is assigned from map-iteration state under a condition that does not compare it (argmax over random key order); iterate sorted keys for deterministic replay",
			})
		}
	}
	handleAssign := func(s *ast.AssignStmt, conds []ast.Expr) {
		// out = append(out, k): defer to the post-loop sortedness check.
		if len(s.Lhs) == 1 && len(s.Rhs) == 1 {
			if call, ok := unparen(s.Rhs[0]).(*ast.CallExpr); ok && isBuiltinAppend(info, call) {
				obj := lhsObj(s.Lhs[0])
				argTainted := false
				for _, a := range call.Args[1:] {
					if exprRefsAny(info, a, tainted) {
						argTainted = true
					}
				}
				if obj != nil && argTainted {
					if loopLocal(obj) {
						tainted[obj] = true
					} else {
						cands = append(cands, appendCand{pos: s.Pos(), obj: obj})
					}
				}
				return
			}
		}
		if len(s.Lhs) == len(s.Rhs) {
			for i := range s.Lhs {
				handlePair(s, s.Lhs[i], s.Rhs[i], conds)
			}
			return
		}
		// Tuple assignment (v, ok := m2[k]): every LHS inherits the RHS taint.
		for _, lhs := range s.Lhs {
			handlePair(s, lhs, s.Rhs[0], conds)
		}
	}

	var scan func(st ast.Stmt, conds []ast.Expr)
	scanList := func(list []ast.Stmt, conds []ast.Expr) {
		for _, st := range list {
			scan(st, conds)
		}
	}
	scan = func(st ast.Stmt, conds []ast.Expr) {
		switch s := st.(type) {
		case *ast.BlockStmt:
			scanList(s.List, conds)
		case *ast.IfStmt:
			if s.Init != nil {
				scan(s.Init, conds)
			}
			inner := append(conds[:len(conds):len(conds)], s.Cond)
			scan(s.Body, inner)
			if s.Else != nil {
				scan(s.Else, inner)
			}
		case *ast.ForStmt:
			if s.Init != nil {
				scan(s.Init, conds)
			}
			inner := conds
			if s.Cond != nil {
				inner = append(conds[:len(conds):len(conds)], s.Cond)
			}
			scan(s.Body, inner)
		case *ast.RangeStmt:
			scan(s.Body, conds)
		case *ast.SwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					scanList(cc.Body, conds)
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					scanList(cc.Body, conds)
				}
			}
		case *ast.SelectStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					scanList(cc.Body, conds)
				}
			}
		case *ast.LabeledStmt:
			scan(s.Stmt, conds)
		case *ast.AssignStmt:
			handleAssign(s, conds)
		case *ast.DeclStmt:
			if gd, ok := s.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for i, name := range vs.Names {
						if i < len(vs.Values) && exprRefsAny(info, vs.Values[i], tainted) {
							if o := info.Defs[name]; o != nil {
								tainted[o] = true
							}
						}
					}
				}
			}
		}
	}
	scan(rs.Body, nil)

	for _, c := range cands {
		if !sortedAfter(m, n, rs, c.obj) {
			sites = append(sites, mapdetSite{
				pos: c.pos,
				msg: c.obj.Name() + " collects map keys/values in iteration order and is never sorted; sort it before use for deterministic replay",
			})
		}
	}
	return sites
}

// sortedAfter reports whether obj is handed to a sorting call anywhere
// in the function after the range statement ends: a direct sort.* /
// slices.* call, or a module function whose summary says it sorts its
// argument.
func sortedAfter(m *Module, n *FuncNode, rs *ast.RangeStmt, obj types.Object) bool {
	info := n.Pkg.Info
	sorted := false
	walkShallow(n.body(), func(nd ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := nd.(*ast.CallExpr)
		if !ok || call.Pos() <= rs.End() {
			return true
		}
		argHasObj := false
		for _, a := range call.Args {
			if exprRefsAny(info, a, map[types.Object]bool{obj: true}) {
				argHasObj = true
				break
			}
		}
		if !argHasObj {
			return true
		}
		if path, name, ok := pkgFuncOf(info, call.Fun); ok && sortFuncs[path][name] {
			sorted = true
			return false
		}
		for _, c := range m.calleesOf(info, call.Fun) {
			if c.sum.SortsArg {
				sorted = true
				return false
			}
		}
		return true
	})
	return sorted
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

// exprRefsAny reports whether e references any object in objs.
func exprRefsAny(info *types.Info, e ast.Expr, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(nd ast.Node) bool {
		if id, ok := nd.(*ast.Ident); ok {
			if o := info.Uses[id]; o != nil && objs[o] {
				found = true
			}
		}
		return !found
	})
	return found
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
