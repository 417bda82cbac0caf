package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// This file builds the module-level call graph that powers the
// interprocedural analyzers (lockhold and the dataflow layer).
// The graph is deliberately conservative in the may-call direction: a
// function value or method value that is merely referenced is treated
// as potentially called, and an interface method call fans out to every
// module type that implements the interface. Precision is recovered
// where it matters by giving goroutine launches (`go f()`) no edge at
// all: a spawned callee cannot block its spawner.

// FuncNode is one node of the module call graph: a declared function or
// method (Obj != nil) or a function literal (Lit != nil).
type FuncNode struct {
	Obj  *types.Func   // declared function/method; nil for literals
	Lit  *ast.FuncLit  // function literal; nil for declarations
	Decl *ast.FuncDecl // declaration site; nil for literals
	Pkg  *Package

	calls map[*FuncNode]bool // synchronous may-call edges (incl. references)

	sum Summary

	// Dataflow layer results (dataflow.go): the converged taint
	// summary, intrinsic-taint sink hits (walldet), recorded obs.Event
	// construction sites (tracekind), and map-order sites (mapdet).
	taint      taintSummary
	taintSites []taintSite
	evLits     []eventLitSite
	evAssigns  []eventAssignSite
	orderSites []orderSite

	// lockhold's network-write summary: which parameters the function
	// writes to, directly or through module callees.
	writesParam []bool

	// hotalloc layer results (hotalloc.go): directives, allocation
	// sites, per-callee minimum loop depth, and the converged hot
	// depth / allocs-per-call estimate.
	hot hotInfo
}

// Name returns a stable human-readable identifier: the type-qualified
// name for declarations, "func@file:line" for literals.
func (n *FuncNode) Name() string {
	if n.Obj != nil {
		return n.Obj.FullName()
	}
	pos := n.Pkg.Fset.Position(n.Lit.Pos())
	return fmt.Sprintf("func@%s:%d", pos.Filename, pos.Line)
}

// Summary returns the converged dataflow summary for this function.
func (n *FuncNode) Summary() Summary { return n.sum }

// Callees returns the synchronous may-call successors in stable order.
func (n *FuncNode) Callees() []*FuncNode {
	out := make([]*FuncNode, 0, len(n.calls))
	for c := range n.calls {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// body returns the function body (nil for bodyless declarations).
func (n *FuncNode) body() *ast.BlockStmt {
	if n.Lit != nil {
		return n.Lit.Body
	}
	return n.Decl.Body
}

// Module is the interprocedural view over a set of loaded packages: the
// call graph plus converged function summaries.
type Module struct {
	byObj map[*types.Func]*FuncNode
	byLit map[*ast.FuncLit]*FuncNode
	nodes []*FuncNode
	named []*types.Named // module named types, for interface dispatch

	implCache map[*types.Func][]*FuncNode

	// Rounds is how many fixed-point sweeps the summary computation
	// needed to converge (diagnostics/tests).
	Rounds int
}

// BuildModule constructs the call graph over pkgs and runs the summary
// dataflow to its fixed point.
func BuildModule(pkgs []*Package) *Module {
	m := &Module{
		byObj:     map[*types.Func]*FuncNode{},
		byLit:     map[*ast.FuncLit]*FuncNode{},
		implCache: map[*types.Func][]*FuncNode{},
	}
	for _, pkg := range pkgs {
		m.collectNodes(pkg)
		m.collectNamed(pkg)
	}
	for _, n := range m.nodes {
		if n.body() != nil {
			m.collectEdges(n)
		}
	}
	computeSummaries(m)
	computeTaintSummaries(m)
	computeWriteParams(m)
	computeHotAlloc(m)
	return m
}

// FuncByName finds a node whose Name has the given suffix (tests and
// diagnostics); returns nil when absent or ambiguous.
func (m *Module) FuncByName(suffix string) *FuncNode {
	var found *FuncNode
	for _, n := range m.nodes {
		if strings.HasSuffix(n.Name(), suffix) {
			if found != nil {
				return nil
			}
			found = n
		}
	}
	return found
}

// Funcs returns every node in stable order.
func (m *Module) Funcs() []*FuncNode {
	out := append([]*FuncNode(nil), m.nodes...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// collectNodes registers every FuncDecl and FuncLit in pkg.
func (m *Module) collectNodes(pkg *Package) {
	for _, file := range pkg.Files {
		ast.Inspect(file, func(nd ast.Node) bool {
			switch x := nd.(type) {
			case *ast.FuncDecl:
				obj, _ := pkg.Info.Defs[x.Name].(*types.Func)
				fn := &FuncNode{Obj: obj, Decl: x, Pkg: pkg, calls: map[*FuncNode]bool{}}
				if obj != nil {
					m.byObj[obj] = fn
				}
				m.nodes = append(m.nodes, fn)
			case *ast.FuncLit:
				fn := &FuncNode{Lit: x, Pkg: pkg, calls: map[*FuncNode]bool{}}
				m.byLit[x] = fn
				m.nodes = append(m.nodes, fn)
			}
			return true
		})
	}
}

// collectNamed registers the package's named types for interface
// dispatch resolution.
func (m *Module) collectNamed(pkg *Package) {
	if pkg.Types == nil {
		return
	}
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if named, ok := tn.Type().(*types.Named); ok {
			m.named = append(m.named, named)
		}
	}
}

// collectEdges walks one function body (not descending into nested
// literals, which are their own nodes) and records call, reference, and
// returned-call edges. The call under a `go` statement adds no edge; its
// arguments are evaluated by the spawner and keep theirs.
func (m *Module) collectEdges(n *FuncNode) {
	info := n.Pkg.Info
	// Funs of call expressions: excluded from reference-edge handling.
	funExprs := map[ast.Expr]bool{}
	// Calls appearing directly under `go`.
	spawnSites := map[*ast.CallExpr]bool{}
	walkShallow(n.body(), func(nd ast.Node) bool {
		switch x := nd.(type) {
		case *ast.GoStmt:
			spawnSites[x.Call] = true
		case *ast.CallExpr:
			funExprs[unparen(x.Fun)] = true
		}
		return true
	})
	walkShallow(n.body(), func(nd ast.Node) bool {
		switch x := nd.(type) {
		case *ast.CallExpr:
			if spawnSites[x] {
				return true
			}
			for _, c := range m.calleesOf(info, x.Fun) {
				n.calls[c] = true
			}
		case *ast.FuncLit:
			// A literal used as a value (stored, passed, returned): the
			// holder may invoke it, so keep a conservative call edge. A
			// literal that is the Fun of a call was already resolved above.
			if !funExprs[x] {
				if c := m.byLit[x]; c != nil {
					n.calls[c] = true
				}
			}
			return false // its body belongs to its own node
		case *ast.Ident:
			if funExprs[x] {
				return true
			}
			if fn, ok := info.Uses[x].(*types.Func); ok {
				if c := m.byObj[fn]; c != nil {
					n.calls[c] = true // function value reference
				}
			}
		case *ast.SelectorExpr:
			if funExprs[x] {
				return true
			}
			// Method value (mv := x.M) or qualified function reference.
			if fn, ok := info.Uses[x.Sel].(*types.Func); ok {
				for _, c := range m.resolveFunc(fn) {
					n.calls[c] = true
				}
			}
		}
		return true
	})
}

// calleesOf resolves the possible module-local targets of calling fun.
// Type conversions, builtins, and non-module functions resolve to nil.
func (m *Module) calleesOf(info *types.Info, fun ast.Expr) []*FuncNode {
	fun = unparen(fun)
	switch f := fun.(type) {
	case *ast.FuncLit:
		if n := m.byLit[f]; n != nil {
			return []*FuncNode{n}
		}
	case *ast.Ident:
		if fn, ok := info.Uses[f].(*types.Func); ok {
			return m.resolveFunc(fn)
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[f]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return m.resolveFunc(fn)
			}
			return nil
		}
		// Package-qualified reference (pkg.Func).
		if fn, ok := info.Uses[f.Sel].(*types.Func); ok {
			return m.resolveFunc(fn)
		}
	}
	return nil
}

// resolveFunc maps a *types.Func to graph nodes: directly for concrete
// functions/methods, through the implementation index for interface
// methods.
func (m *Module) resolveFunc(fn *types.Func) []*FuncNode {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		if types.IsInterface(sig.Recv().Type()) {
			return m.implementers(fn)
		}
	}
	if n := m.byObj[fn]; n != nil {
		return []*FuncNode{n}
	}
	return nil
}

// implementers returns the module methods that may be dispatched to by
// a call of the interface method fn.
func (m *Module) implementers(fn *types.Func) []*FuncNode {
	if cached, ok := m.implCache[fn]; ok {
		return cached
	}
	var out []*FuncNode
	iface, _ := fn.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
	if iface != nil {
		seen := map[*FuncNode]bool{}
		for _, named := range m.named {
			if types.IsInterface(named.Underlying()) {
				continue
			}
			ptr := types.NewPointer(named)
			if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(ptr, true, fn.Pkg(), fn.Name())
			if impl, ok := obj.(*types.Func); ok {
				if n := m.byObj[impl]; n != nil && !seen[n] {
					seen[n] = true
					out = append(out, n)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	m.implCache[fn] = out
	return out
}

// walkShallow inspects root without descending into nested function
// literals (whose bodies belong to their own graph nodes).
func walkShallow(root ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(root, func(nd ast.Node) bool {
		if lit, ok := nd.(*ast.FuncLit); ok && nd != root {
			if !fn(lit) {
				return false
			}
			return false
		}
		if nd == nil {
			return true
		}
		return fn(nd)
	})
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
