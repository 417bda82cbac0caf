package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// Summary is the per-function dataflow summary computed to a fixed
// point over the call graph. All bits are monotone (they only turn on),
// so the iteration terminates even under mutual recursion.
type Summary struct {
	// MayBlock: the function may block indefinitely — a channel
	// send/receive, a select without default, sync.Cond/WaitGroup Wait,
	// a known-blocking stdlib call (time.Sleep, file/network I/O), or a
	// synchronous call into a function that may. Goroutine launches do
	// not propagate it: `go f()` never blocks the spawner.
	MayBlock bool
	// Acquires: identities (field or variable objects) of sync.Mutex /
	// sync.RWMutex receivers the function may Lock/RLock, directly or
	// transitively. Calling such a function while one of these is held
	// is a self-deadlock candidate (lockhold).
	Acquires map[types.Object]bool
	// SortsArg: the function sorts a slice reachable from its
	// parameters (sort.Slice/sort.Ints/slices.Sort/...). Read by the
	// taint walk's sanitizeArg, which is how mapdet accepts a key
	// collection handed to such a helper.
	SortsArg bool
}

// sortFuncs maps package path → function names that sort their first
// slice argument.
var sortFuncs = map[string]map[string]bool{
	"sort": {"Slice": true, "SliceStable": true, "Sort": true, "Stable": true,
		"Ints": true, "Strings": true, "Float64s": true},
	"slices": {"Sort": true, "SortFunc": true, "SortStableFunc": true},
}

// computeSummaries derives direct facts per node and iterates the
// monotone transfer functions to convergence.
func computeSummaries(m *Module) {
	for _, n := range m.nodes {
		n.sum.Acquires = map[types.Object]bool{}
		if n.body() != nil {
			directFacts(n)
		}
	}
	// Fixed point for MayBlock / Acquires.
	m.Rounds = 0
	for changed := true; changed; {
		changed = false
		m.Rounds++
		for _, n := range m.nodes {
			for c := range n.calls {
				if c.sum.MayBlock && !n.sum.MayBlock {
					n.sum.MayBlock = true
					changed = true
				}
				for obj := range c.sum.Acquires {
					if !n.sum.Acquires[obj] {
						n.sum.Acquires[obj] = true
						changed = true
					}
				}
			}
		}
	}
}

// directFacts computes the intraprocedural summary bits of one node.
func directFacts(n *FuncNode) {
	info := n.Pkg.Info
	params := paramList(n)
	walkShallow(n.body(), func(nd ast.Node) bool {
		switch x := nd.(type) {
		case *ast.SendStmt:
			n.sum.MayBlock = true
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				n.sum.MayBlock = true
			}
		case *ast.SelectStmt:
			if !selectHasDefault(x) {
				n.sum.MayBlock = true
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[x.X]; ok && tv.Type != nil {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					n.sum.MayBlock = true
				}
			}
		case *ast.CallExpr:
			directCallFacts(n, info, params, x)
		}
		return true
	})
}

// directCallFacts classifies one call expression: blocking stdlib/sync
// calls, mutex acquisitions, and parameter sorts.
func directCallFacts(n *FuncNode, info *types.Info, params []types.Object, call *ast.CallExpr) {
	// Package-qualified calls: blocking table and sorting helpers.
	if path, name, ok := pkgFuncOf(info, call.Fun); ok {
		if blockingCalls[path][name] {
			n.sum.MayBlock = true
		}
		if sortFuncs[path][name] && len(call.Args) > 0 {
			if root := rootIdent(call.Args[0]); root != nil && slices.Contains(params, info.Uses[root]) {
				n.sum.SortsArg = true
			}
		}
		return
	}
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	// Method calls resolved through types.Selections: sync.Cond.Wait and
	// sync.WaitGroup.Wait block; Lock/RLock acquire.
	s, ok := info.Selections[sel]
	if !ok {
		return
	}
	if fn, ok := s.Obj().(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
		switch fn.Name() {
		case "Wait":
			n.sum.MayBlock = true
		case "Lock", "RLock":
			if obj := mutexIdentity(info, sel.X); obj != nil {
				n.sum.Acquires[obj] = true
			}
		}
	}
}

// mutexIdentity resolves the receiver of a Lock/RLock to a stable
// object: the struct field or variable holding the mutex. Identity is
// per declaration site, not per instance — two instances of the same
// struct share the field object, which is the conservative direction
// for self-deadlock detection.
func mutexIdentity(info *types.Info, recv ast.Expr) types.Object {
	switch r := unparen(recv).(type) {
	case *ast.Ident:
		return info.Uses[r]
	case *ast.SelectorExpr:
		if s, ok := info.Selections[r]; ok {
			return s.Obj()
		}
		return info.Uses[r.Sel]
	case *ast.UnaryExpr:
		if r.Op == token.AND {
			return mutexIdentity(info, r.X)
		}
	case *ast.StarExpr:
		return mutexIdentity(info, r.X)
	}
	return nil
}

// selectHasDefault reports whether a select statement has a default
// case (making it non-blocking).
func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// rootIdent returns the leftmost identifier of an expression chain
// (x, x.f, x[i], *x, &x → x); nil when the root is not an identifier.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.CallExpr:
			e = x.Fun
		default:
			return nil
		}
	}
}

// exprRootObj resolves an expression's root identifier to its object.
func exprRootObj(info *types.Info, e ast.Expr) types.Object {
	root := rootIdent(e)
	if root == nil {
		return nil
	}
	if obj := info.Uses[root]; obj != nil {
		return obj
	}
	return info.Defs[root]
}
