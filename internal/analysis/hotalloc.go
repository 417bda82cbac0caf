package analysis

// hotalloc is ugolint's fourth layer: interprocedural allocation
// analysis for the solve hot path. Hot regions are seeded from
// //ugo:hotpath directives on function declarations and propagated
// through the module call graph as a minimum-loop-depth fixed point;
// every function body is scanned (on the flowStmt driver) for potential
// heap-allocation sites; the two compose into a per-function
// AllocSummary so a cold-looking helper called from a hot loop is
// charged at the call site.
//
// Directives:
//
//	//ugo:hotpath           root: runs once per hot iteration (depth 1)
//	//ugo:hotpath driver    root that owns the hot loop itself (depth 0)
//	//ugo:coldpath <reason> audited boundary: propagation stops here
//
// Sanctioned reuse idioms are recognized and kept out of the findings
// (but stay visible in the -hot table): append over x[:0] or a struct
// field or a caller-provided buffer, make installed on a struct field,
// capacity-guarded grows (`if cap(x) < n { x = make(...) }`), writes to
// locally-made or clear()ed maps, sync.Pool New constructors, and
// allocation on an early-return/panic path (at most once per call).

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"math"
	"sort"
	"strings"
)

const (
	hotCold     = -1  // not reachable from any hot root
	maxHotDepth = 6   // propagation depth clamp
	loopWeight  = 8.0 // assumed iterations per loop level for ranking
	allocCap    = 1e6 // allocs-per-call clamp (recursion backstop)
)

// hotDirective is a parsed //ugo: annotation on a declaration.
type hotDirective struct {
	root   bool   // //ugo:hotpath [driver]
	driver bool   // owns the hot loop: base depth 0 instead of 1
	cold   bool   // //ugo:coldpath
	reason string // coldpath audit reason
	pos    token.Pos
	bad    string // malformed-directive message (reported by the analyzer)
}

// allocSite is one potential heap allocation inside a function body.
type allocSite struct {
	pos      token.Pos
	depth    int    // syntactic loop depth within the function
	kind     string // what allocates
	hint     string // suggested remedy
	sanction string // non-empty: recognized reuse idiom, not reported
	exit     bool   // on an early-return/panic path
}

// calleeEdge records the minimum loop depth at which a callee is
// invoked from this function.
type calleeEdge struct {
	c     *FuncNode
	depth int
}

// hotInfo is the per-function hotalloc state carried on FuncNode.
type hotInfo struct {
	dir        hotDirective
	hasDir     bool
	sites      []allocSite
	edges      []calleeEdge // min call depth per callee, name-sorted
	siteAllocs float64      // Σ loopWeight^depth over charged sites
	escaped    []int        // param indices stored into heap-reachable places
	depth      int          // min loop depth from a hot root; hotCold if none
	via        string       // hot predecessor (diagnostics)
	allocs     float64      // converged allocs-per-call estimate
}

const (
	hotpathPrefix  = "//ugo:hotpath"
	coldpathPrefix = "//ugo:coldpath"
)

// matchDirective reports whether text is prefix followed by a word
// boundary (so //ugo:hotpathology is not ours).
func matchDirective(text, prefix string) bool {
	if !strings.HasPrefix(text, prefix) {
		return false
	}
	rest := text[len(prefix):]
	return rest == "" || rest[0] == ' ' || rest[0] == '\t'
}

// scanHotDirective parses the //ugo: directive (if any) from a
// declaration's doc comment into n.hot.dir.
func scanHotDirective(n *FuncNode) {
	if n.Decl == nil || n.Decl.Doc == nil {
		return
	}
	for _, c := range n.Decl.Doc.List {
		switch {
		case matchDirective(c.Text, hotpathPrefix):
			rest := strings.TrimSpace(strings.TrimPrefix(c.Text, hotpathPrefix))
			d := hotDirective{root: true, pos: c.Pos()}
			switch rest {
			case "":
			case "driver":
				d.driver = true
			default:
				d = hotDirective{pos: c.Pos(),
					bad: fmt.Sprintf("unknown //ugo:hotpath argument %q (want nothing or \"driver\")", rest)}
			}
			n.hot.dir, n.hot.hasDir = d, true
		case matchDirective(c.Text, coldpathPrefix):
			rest := strings.TrimSpace(strings.TrimPrefix(c.Text, coldpathPrefix))
			d := hotDirective{cold: true, reason: rest, pos: c.Pos()}
			if rest == "" {
				// Still honored as a boundary, but the missing audit
				// reason is itself a finding.
				d.bad = "//ugo:coldpath needs an audit reason"
			}
			n.hot.dir, n.hot.hasDir = d, true
		}
	}
}

// markPoolNewLits marks sync.Pool New constructors as audited cold
// boundaries: the allocation inside them is the pool's slow path.
func markPoolNewLits(m *Module) {
	seen := map[*Package]bool{}
	for _, n := range m.nodes {
		if n.Pkg == nil || seen[n.Pkg] {
			continue
		}
		seen[n.Pkg] = true
		pkg := n.Pkg
		for _, file := range pkg.Files {
			ast.Inspect(file, func(nd ast.Node) bool {
				cl, ok := nd.(*ast.CompositeLit)
				if !ok {
					return true
				}
				tv, ok := pkg.Info.Types[cl]
				if !ok || !isNamedIn(tv.Type, "Pool", "sync") {
					return true
				}
				for _, el := range cl.Elts {
					kv, ok := el.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					key, ok := kv.Key.(*ast.Ident)
					if !ok || key.Name != "New" {
						continue
					}
					if lit, ok := unparen(kv.Value).(*ast.FuncLit); ok {
						if c := m.byLit[lit]; c != nil {
							c.hot.dir = hotDirective{cold: true, reason: "sync.Pool constructor"}
							c.hot.hasDir = true
						}
					}
				}
				return true
			})
		}
	}
}

// span is a half-open-ish position range [from, to].
type span struct{ from, to token.Pos }

// exitSpans returns the position ranges of if/case/select bodies that
// end in return or panic: allocation there happens at most once per
// call (error construction, teardown), so sites inside are sanctioned
// and call edges contribute loop depth 0.
func exitSpans(body *ast.BlockStmt) []span {
	var out []span
	add := func(list []ast.Stmt) {
		if len(list) == 0 {
			return
		}
		switch last := list[len(list)-1].(type) {
		case *ast.ReturnStmt:
			out = append(out, span{list[0].Pos(), last.End()})
		case *ast.ExprStmt:
			if call, ok := last.X.(*ast.CallExpr); ok {
				if id, ok := unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
					out = append(out, span{list[0].Pos(), last.End()})
				}
			}
		}
	}
	walkShallow(body, func(nd ast.Node) bool {
		switch x := nd.(type) {
		case *ast.IfStmt:
			add(x.Body.List)
		case *ast.CaseClause:
			add(x.Body)
		case *ast.CommClause:
			add(x.Body)
		}
		return true
	})
	return out
}

// allocWalker accumulates allocation sites and callee depths for one
// function body. It is flow-insensitive apart from the syntactic loop
// depth maintained through the flowStmt driver's loopAware hook.
type allocWalker struct {
	m    *Module
	n    *FuncNode
	info *types.Info

	depth       int
	exitRegions []span
	paramIdx    map[types.Object]int
	capGuarded  map[types.Object]bool    // buffers with a cap-guard somewhere in the body
	localMaps   map[types.Object]bool    // maps made locally (the make is the charged site)
	cleared     map[types.Object]bool    // maps the function clear()s
	sanctioned  map[*ast.CallExpr]string // make calls sanctioned by the pre-pass
	seenPos     map[token.Pos]bool       // site dedup (loop bodies run twice)
	escapes     map[int]bool
	calleeDepth map[*FuncNode]int
}

// allocEnv adapts the walker to the flowStmt driver. All forks share
// the walker; only the loop depth is flow state.
type allocEnv struct{ w *allocWalker }

func (e allocEnv) fork() flowState    { return e }
func (e allocEnv) merge(flowState)    {}
func (e allocEnv) enterLoop(ast.Stmt) { e.w.depth++ }
func (e allocEnv) exitLoop()          { e.w.depth-- }
func (e allocEnv) expr(x ast.Expr)    { e.w.scanExpr(x) }
func (e allocEnv) leaf(st ast.Stmt)   { e.w.leafStmt(st) }

func (w *allocWalker) inExit(pos token.Pos) bool {
	for _, s := range w.exitRegions {
		if s.from <= pos && pos <= s.to {
			return true
		}
	}
	return false
}

func (w *allocWalker) site(pos token.Pos, kind, hint, sanction string) {
	if w.seenPos[pos] {
		return
	}
	w.seenPos[pos] = true
	w.n.hot.sites = append(w.n.hot.sites, allocSite{
		pos: pos, depth: w.depth, kind: kind, hint: hint,
		sanction: sanction, exit: w.inExit(pos),
	})
}

func (w *allocWalker) edge(c *FuncNode, pos token.Pos) {
	d := w.depth
	if w.inExit(pos) {
		d = 0
	}
	if cur, ok := w.calleeDepth[c]; !ok || d < cur {
		w.calleeDepth[c] = d
	}
}

func (w *allocWalker) typeOf(e ast.Expr) types.Type {
	if e == nil {
		return nil
	}
	if tv, ok := w.info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := unparen(e).(*ast.Ident); ok {
		if o := w.info.Uses[id]; o != nil {
			return o.Type()
		}
		if o := w.info.Defs[id]; o != nil {
			return o.Type()
		}
	}
	return nil
}

// refObj resolves the variable a reference chain is rooted at: x, x.f,
// x[i], *x all resolve to the leftmost addressable object; for field
// selections the field variable itself is returned (stable across
// mentions), so `s.buf` matches `s.buf` in another statement.
func (w *allocWalker) refObj(e ast.Expr) types.Object {
	switch x := unparen(e).(type) {
	case *ast.Ident:
		if o := w.info.Defs[x]; o != nil {
			return o
		}
		return w.info.Uses[x]
	case *ast.SelectorExpr:
		if sel, ok := w.info.Selections[x]; ok {
			return sel.Obj()
		}
		return w.info.Uses[x.Sel]
	case *ast.StarExpr:
		return w.refObj(x.X)
	case *ast.IndexExpr:
		return w.refObj(x.X)
	case *ast.SliceExpr:
		return w.refObj(x.X)
	}
	return nil
}

func (w *allocWalker) noteEscape(e ast.Expr) {
	if kv, ok := unparen(e).(*ast.KeyValueExpr); ok {
		e = kv.Value
	}
	if id := rootIdent(e); id != nil {
		obj := w.info.Uses[id]
		if obj == nil {
			obj = w.info.Defs[id]
		}
		if i, ok := w.paramIdx[obj]; ok {
			w.escapes[i] = true
		}
	}
}

// makeCall matches e against the make builtin.
func (w *allocWalker) makeCall(e ast.Expr) *ast.CallExpr {
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok {
		return nil
	}
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "make" {
		return nil
	}
	if _, ok := w.info.Uses[id].(*types.Builtin); !ok {
		return nil
	}
	return call
}

// capGuardObj matches `cap(x) < n` and returns x's root object.
func (w *allocWalker) capGuardObj(cond ast.Expr) types.Object {
	b, ok := unparen(cond).(*ast.BinaryExpr)
	if !ok || b.Op != token.LSS {
		return nil
	}
	call, ok := unparen(b.X).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return nil
	}
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "cap" {
		return nil
	}
	if _, ok := w.info.Uses[id].(*types.Builtin); !ok {
		return nil
	}
	return w.refObj(call.Args[0])
}

// prepass collects flow-insensitive facts before the site scan:
// capacity guards, clear()ed maps, locally-made maps, and the make
// calls those facts sanction. ast.Inspect is pre-order, so a guard is
// seen before the make it wraps.
func (w *allocWalker) prepass(body *ast.BlockStmt) {
	walkShallow(body, func(nd ast.Node) bool {
		switch x := nd.(type) {
		case *ast.IfStmt:
			if obj := w.capGuardObj(x.Cond); obj != nil {
				w.capGuarded[obj] = true
			}
		case *ast.CallExpr:
			if id, ok := unparen(x.Fun).(*ast.Ident); ok && id.Name == "clear" && len(x.Args) == 1 {
				if _, ok := w.info.Uses[id].(*types.Builtin); ok {
					if obj := w.refObj(x.Args[0]); obj != nil {
						w.cleared[obj] = true
					}
				}
			}
		case *ast.AssignStmt:
			if len(x.Lhs) != len(x.Rhs) {
				return true
			}
			for i, l := range x.Lhs {
				mk := w.makeCall(x.Rhs[i])
				if mk == nil {
					continue
				}
				obj := w.refObj(l)
				if obj == nil {
					continue
				}
				if t := w.typeOf(l); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						if v, ok := obj.(*types.Var); ok && !v.IsField() {
							w.localMaps[obj] = true
						}
					}
				}
				if v, ok := obj.(*types.Var); ok && v.IsField() {
					w.sanctioned[mk] = "grow-on-demand make installed on a struct field"
				} else if w.capGuarded[obj] {
					w.sanctioned[mk] = "capacity-guarded grow of a reused buffer"
				}
			}
		case *ast.GenDecl:
			for _, spec := range x.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, v := range vs.Values {
					if w.makeCall(v) == nil || i >= len(vs.Names) {
						continue
					}
					obj := w.info.Defs[vs.Names[i]]
					if obj == nil {
						continue
					}
					if _, isMap := obj.Type().Underlying().(*types.Map); isMap {
						w.localMaps[obj] = true
					}
				}
			}
		}
		return true
	})
	w.exitRegions = exitSpans(body)
}

func (w *allocWalker) leafStmt(st ast.Stmt) {
	switch s := st.(type) {
	case *ast.AssignStmt:
		w.scanAssign(s)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.scanExpr(v)
					}
				}
			}
		}
	case *ast.ExprStmt:
		w.scanExpr(s.X)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.scanExpr(r)
		}
	case *ast.SendStmt:
		w.scanExpr(s.Chan)
		w.scanExpr(s.Value)
		w.noteEscape(s.Value)
	case *ast.IncDecStmt:
		w.scanExpr(s.X)
	case *ast.GoStmt:
		if w.depth >= 1 {
			w.site(s.Pos(), "goroutine launched per iteration",
				"hoist the launch out of the loop or use a worker pool", "")
		}
		for _, a := range s.Call.Args {
			w.scanExpr(a)
		}
	case *ast.DeferStmt:
		if w.depth >= 1 {
			w.site(s.Pos(), "defer inside a loop",
				"move the defer out of the loop", "")
		}
		for _, a := range s.Call.Args {
			w.scanExpr(a)
		}
	case *ast.RangeStmt:
		w.scanExpr(s.X) // header only; the driver runs the body
	}
}

func (w *allocWalker) scanAssign(s *ast.AssignStmt) {
	if s.Tok == token.ADD_ASSIGN && len(s.Lhs) == 1 && isStringType(w.typeOf(s.Lhs[0])) {
		w.site(s.Pos(), "string += grows by copy",
			"accumulate in a reused []byte outside the hot region", "")
	}
	for i, l := range s.Lhs {
		lhs := unparen(l)
		if ix, ok := lhs.(*ast.IndexExpr); ok {
			if t := w.typeOf(ix.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					sanction := ""
					if obj := w.refObj(ix.X); obj != nil && (w.localMaps[obj] || w.cleared[obj]) {
						sanction = "write to a locally-made or clear()ed map"
					}
					w.site(s.Pos(), "map write may trigger a rehash",
						"preallocate with make(map, n) or reuse a clear()ed map", sanction)
				}
			}
		}
		if i < len(s.Rhs) && len(s.Lhs) == len(s.Rhs) {
			w.checkBoxing(w.typeOf(l), s.Rhs[i], "assignment to interface-typed location")
			switch lhs.(type) {
			case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
				w.noteEscape(s.Rhs[i])
			}
		}
	}
	for _, r := range s.Rhs {
		w.scanExpr(r)
	}
	for _, l := range s.Lhs {
		w.scanExpr(l)
	}
}

func (w *allocWalker) scanExpr(x ast.Expr) {
	switch v := unparen(x).(type) {
	case nil:
	case *ast.CallExpr:
		w.scanCall(v)
	case *ast.CompositeLit:
		w.scanComposite(v, false)
	case *ast.UnaryExpr:
		if v.Op == token.AND {
			if lit, ok := unparen(v.X).(*ast.CompositeLit); ok {
				w.scanComposite(lit, true)
				return
			}
		}
		w.scanExpr(v.X)
	case *ast.BinaryExpr:
		if v.Op == token.ADD && isStringType(w.typeOf(v)) && !w.isConst(v) {
			w.site(v.Pos(), "string concatenation allocates",
				"build into a reused []byte or precompute outside the hot region", "")
		}
		w.scanExpr(v.X)
		w.scanExpr(v.Y)
	case *ast.FuncLit:
		if c := w.m.byLit[v]; c != nil {
			w.edge(c, v.Pos())
		}
		if w.depth >= 1 {
			w.site(v.Pos(), "closure allocated per loop iteration",
				"hoist the closure (and its captures) out of the loop", "")
		}
	case *ast.StarExpr:
		w.scanExpr(v.X)
	case *ast.IndexExpr:
		w.scanExpr(v.X)
		w.scanExpr(v.Index)
	case *ast.SliceExpr:
		w.scanExpr(v.X)
		w.scanExpr(v.Low)
		w.scanExpr(v.High)
		w.scanExpr(v.Max)
	case *ast.TypeAssertExpr:
		w.scanExpr(v.X)
	case *ast.KeyValueExpr:
		w.scanExpr(v.Value)
	case *ast.SelectorExpr:
		if sel, ok := w.info.Selections[v]; ok && sel.Kind() == types.MethodVal && w.depth >= 1 {
			w.site(v.Pos(), "method value allocates a bound closure",
				"call the method directly or hoist the value", "")
		}
		w.scanExpr(v.X)
	}
}

func (w *allocWalker) isConst(e ast.Expr) bool {
	tv, ok := w.info.Types[e]
	return ok && tv.Value != nil
}

func (w *allocWalker) scanComposite(lit *ast.CompositeLit, addr bool) {
	t := w.typeOf(lit)
	switch {
	case addr:
		w.site(lit.Pos(), "&composite literal escapes to the heap",
			"reuse a pooled or scratch object", "")
	case t != nil:
		switch t.Underlying().(type) {
		case *types.Slice:
			w.site(lit.Pos(), "slice literal allocates a backing array",
				"write into a reused scratch slice", "")
		case *types.Map:
			w.site(lit.Pos(), "map literal allocates",
				"hoist the map out of the hot region", "")
		}
	}
	for _, el := range lit.Elts {
		w.scanExpr(el)
		w.noteEscape(el)
	}
}

func (w *allocWalker) scanArgs(call *ast.CallExpr) {
	for _, a := range call.Args {
		w.scanExpr(a)
	}
}

func (w *allocWalker) scanCall(call *ast.CallExpr) {
	fun := unparen(call.Fun)

	if lit, ok := fun.(*ast.FuncLit); ok {
		// Immediately-invoked literal: a call edge, not a closure value.
		if c := w.m.byLit[lit]; c != nil {
			w.edge(c, call.Pos())
		}
		w.scanArgs(call)
		return
	}

	// Type conversions.
	if tv, ok := w.info.Types[fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			tgt := tv.Type
			at := w.typeOf(call.Args[0])
			if isStringByteConv(tgt, at) {
				w.site(call.Pos(), "string/[]byte conversion copies",
					"keep one representation across the hot region", "")
			} else {
				w.checkBoxing(tgt, call.Args[0], "conversion")
			}
		}
		w.scanArgs(call)
		return
	}

	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if _, isB := w.info.Uses[id].(*types.Builtin); isB {
			switch id.Name {
			case "make":
				w.site(call.Pos(), "make allocates",
					"preallocate once and reuse (capacity-guarded grow or struct-field scratch)",
					w.sanctioned[call])
			case "new":
				w.site(call.Pos(), "new allocates",
					"reuse a pooled or scratch object", "")
			case "append":
				w.appendSite(call)
			}
			w.scanArgs(call)
			return
		}
	}

	// container/heap dispatches every element through interface{}.
	if path, name, ok := pkgFuncOf(w.info, fun); ok && path == "container/heap" {
		w.site(call.Pos(), fmt.Sprintf("container/heap.%s dispatches through interface methods", name),
			"replace with a concrete sift-up/down heap", "")
	}

	w.checkCallBoxing(call)

	for _, c := range w.m.calleesOf(w.info, fun) {
		w.edge(c, call.Pos())
	}

	if sel, ok := fun.(*ast.SelectorExpr); ok {
		w.scanExpr(sel.X)
	}
	w.scanArgs(call)
}

func (w *allocWalker) appendSite(call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	dst := unparen(call.Args[0])
	sanction := ""
	if se, ok := dst.(*ast.SliceExpr); ok {
		if se.Low == nil && se.High != nil && isZeroLit(se.High) {
			sanction = "reset-and-append reuse (x[:0])"
		}
	}
	if sanction == "" {
		if obj := w.refObj(dst); obj != nil {
			if v, ok := obj.(*types.Var); ok {
				if v.IsField() {
					sanction = "amortized growth of a persistent buffer field"
				} else if _, isParam := w.paramIdx[obj]; isParam {
					sanction = "append-builder over a caller-provided buffer"
				}
			}
		}
	}
	w.site(call.Pos(), "append may grow the backing array",
		"preallocate capacity or append into a reused scratch buffer", sanction)
	for _, a := range call.Args[1:] {
		w.noteEscape(a)
	}
}

// checkBoxing flags a concrete, non-pointer-shaped value placed into an
// interface-typed location: the conversion copies the value to the heap.
func (w *allocWalker) checkBoxing(tgt types.Type, val ast.Expr, what string) {
	if tgt == nil || !types.IsInterface(tgt) {
		return
	}
	at := w.typeOf(val)
	if at == nil || types.IsInterface(at) || pointerShaped(at) {
		return
	}
	w.site(val.Pos(), fmt.Sprintf("%s boxes a %s into an interface", what, typeShort(at)),
		"avoid interface indirection on the hot path", "")
}

// checkCallBoxing applies the boxing rule at call boundaries, including
// fmt-style variadic ...any parameters.
func (w *allocWalker) checkCallBoxing(call *ast.CallExpr) {
	tv, ok := w.info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	np := params.Len()
	for i, a := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if call.Ellipsis.IsValid() {
				continue // slice passed through whole, no per-arg boxing
			}
			if sl, ok := params.At(np - 1).Type().(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < np:
			pt = params.At(i).Type()
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		at := w.typeOf(a)
		if at == nil || types.IsInterface(at) || pointerShaped(at) {
			continue
		}
		w.site(a.Pos(), fmt.Sprintf("argument boxes a %s into a %s parameter", typeShort(at), typeShort(pt)),
			"avoid interface parameters on the hot path (or pass pointer-shaped values)", "")
	}
}

// pointerShaped reports whether converting t to an interface stores the
// value directly in the interface word (no heap copy).
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Interface:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer || u.Kind() == types.UntypedNil
	}
	return false
}

func typeShort(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func isStringByteConv(tgt, src types.Type) bool {
	if tgt == nil || src == nil {
		return false
	}
	return (isStringType(tgt) && isByteOrRuneSlice(src)) ||
		(isByteOrRuneSlice(tgt) && isStringType(src))
}

func isZeroLit(e ast.Expr) bool {
	bl, ok := unparen(e).(*ast.BasicLit)
	return ok && bl.Kind == token.INT && bl.Value == "0"
}

// collectAllocSites runs the site scan over one function body and
// flattens the results onto n.hot.
func collectAllocSites(m *Module, n *FuncNode) {
	w := &allocWalker{
		m: m, n: n, info: n.Pkg.Info,
		paramIdx:    map[types.Object]int{},
		capGuarded:  map[types.Object]bool{},
		localMaps:   map[types.Object]bool{},
		cleared:     map[types.Object]bool{},
		sanctioned:  map[*ast.CallExpr]string{},
		seenPos:     map[token.Pos]bool{},
		escapes:     map[int]bool{},
		calleeDepth: map[*FuncNode]int{},
	}
	for i, p := range paramList(n) {
		w.paramIdx[p] = i
	}
	body := n.body()
	w.prepass(body)
	flowStmts(body.List, allocEnv{w})

	sort.Slice(n.hot.sites, func(i, j int) bool { return n.hot.sites[i].pos < n.hot.sites[j].pos })
	edges := make([]calleeEdge, 0, len(w.calleeDepth))
	for c, d := range w.calleeDepth {
		edges = append(edges, calleeEdge{c, d})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].c.Name() < edges[j].c.Name() })
	n.hot.edges = edges

	var sum float64
	for _, s := range n.hot.sites {
		switch {
		case s.sanction != "":
			// amortized/reused: charged 0
		case s.exit:
			sum++ // at most once per call
		default:
			sum += math.Pow(loopWeight, float64(s.depth))
		}
	}
	n.hot.siteAllocs = sum

	for i := range w.escapes {
		n.hot.escaped = append(n.hot.escaped, i)
	}
	sort.Ints(n.hot.escaped)
}

// computeHotAlloc runs the hotalloc layer over the module: directive
// scan, per-body site collection, then two fixed points — minimum hot
// depth (decreasing) and allocs-per-call (increasing, clamped).
func computeHotAlloc(m *Module) {
	for _, n := range m.nodes {
		n.hot = hotInfo{depth: hotCold}
		scanHotDirective(n)
	}
	markPoolNewLits(m)
	for _, n := range m.nodes {
		if n.body() != nil {
			collectAllocSites(m, n)
		}
	}

	for sweep := 0; sweep < 200; sweep++ {
		changed := false
		for _, n := range m.nodes {
			if n.hot.dir.root {
				base := 1
				if n.hot.dir.driver {
					base = 0
				}
				if n.hot.depth == hotCold || base < n.hot.depth {
					n.hot.depth, n.hot.via = base, ""
					changed = true
				}
			}
			if n.hot.depth == hotCold || n.hot.dir.cold {
				continue
			}
			for _, e := range n.hot.edges {
				c := e.c
				if c.hot.dir.cold || isObsPath(c.Pkg.PkgPath) {
					continue
				}
				cand := n.hot.depth + e.depth
				if cand > maxHotDepth {
					cand = maxHotDepth
				}
				if c.hot.depth == hotCold || cand < c.hot.depth {
					c.hot.depth = cand
					c.hot.via = shortFuncName(n)
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}

	for sweep := 0; sweep < 60; sweep++ {
		changed := false
		for _, n := range m.nodes {
			v := n.hot.siteAllocs
			for _, e := range n.hot.edges {
				if e.c == n || e.c.hot.dir.cold || isObsPath(e.c.Pkg.PkgPath) {
					continue
				}
				v += e.c.hot.allocs * math.Pow(loopWeight, float64(e.depth))
			}
			if v > allocCap {
				v = allocCap
			}
			if v > n.hot.allocs+1e-9 {
				n.hot.allocs = v
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

// isObsPath matches the observability package: its tracer is the
// audited allocation boundary (events are only built when tracing is
// on), so hot propagation stops there.
func isObsPath(pkgPath string) bool {
	return strings.HasSuffix(pkgPath, "internal/obs")
}

// AllocSummary is the exported per-function allocation estimate.
type AllocSummary struct {
	// AllocsPerCall estimates heap allocations per invocation, with
	// loops weighted at loopWeight iterations per level and callees
	// charged at their call-site depth.
	AllocsPerCall float64
	// EscapedParams lists parameter indices (receiver first) the
	// function stores into heap-reachable places.
	EscapedParams []int
}

// Alloc returns the converged allocation summary for this function.
func (n *FuncNode) Alloc() AllocSummary {
	return AllocSummary{
		AllocsPerCall: n.hot.allocs,
		EscapedParams: append([]int(nil), n.hot.escaped...),
	}
}

// HotDepth returns the converged minimum loop depth from a hot root,
// or -1 when the function is not reachable from any //ugo:hotpath root.
func (n *FuncNode) HotDepth() int { return n.hot.depth }

// HotRow is one line of the ranked hot-region table.
type HotRow struct {
	Func          string
	Depth         int // -1 for coldpath boundaries referenced from hot code
	AllocsPerCall float64
	Score         float64 // AllocsPerCall × loopWeight^Depth: cost per root iteration
	Sites         int     // charged (unsanctioned, non-exit) sites in the body
	Via           string  // hot predecessor
	Cold          string  // coldpath audit reason (boundary rows)
}

// HotReport returns the hot functions ranked by estimated allocation
// cost per root iteration, followed by the audited coldpath boundaries
// they reference.
func (m *Module) HotReport() []HotRow {
	boundary := map[*FuncNode]bool{}
	for _, n := range m.nodes {
		if n.hot.depth == hotCold || n.hot.dir.cold {
			continue
		}
		for _, e := range n.hot.edges {
			if e.c.hot.dir.cold {
				boundary[e.c] = true
			}
		}
	}
	var rows []HotRow
	for _, n := range m.nodes {
		switch {
		case n.hot.depth != hotCold && !n.hot.dir.cold:
			sites := 0
			for _, s := range n.hot.sites {
				if s.sanction == "" && !s.exit {
					sites++
				}
			}
			rows = append(rows, HotRow{
				Func:          n.Name(),
				Depth:         n.hot.depth,
				AllocsPerCall: n.hot.allocs,
				Score:         n.hot.allocs * math.Pow(loopWeight, float64(n.hot.depth)),
				Sites:         sites,
				Via:           n.hot.via,
			})
		case boundary[n]:
			rows = append(rows, HotRow{
				Func:          n.Name(),
				Depth:         -1,
				AllocsPerCall: n.hot.allocs,
				Cold:          n.hot.dir.reason,
			})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		//lint:ignore floatcmp exact compare is a deterministic sort tiebreak, not a tolerance decision
		if rows[i].Score != rows[j].Score {
			return rows[i].Score > rows[j].Score
		}
		return rows[i].Func < rows[j].Func
	})
	return rows
}

// RunHot builds the module over pkgs, runs only the hotalloc analyzer
// (so //lint:ignore directives apply), and returns the surviving
// findings plus the ranked hot-region table.
func RunHot(pkgs []*Package) ([]Finding, []HotRow) {
	mod := BuildModule(pkgs)
	var out []Finding
	for _, pkg := range pkgs {
		out = append(out, runPackage(pkg, mod, []*Analyzer{HotAlloc})...)
	}
	sortFindings(out)
	return out, mod.HotReport()
}

// HotAlloc reports unsanctioned allocation sites in functions reachable
// from //ugo:hotpath roots, plus malformed //ugo: directives. The
// per-node solve loop promises an allocation-free steady state, so
// composite literals, make/new, growing appends, map rehashes, closures,
// interface boxing and string concatenation in hot regions are findings
// unless a sanctioned reuse idiom or //ugo:coldpath audit covers them.
var HotAlloc = &Analyzer{
	Name:    "hotalloc",
	Doc:     "allocation reachable from //ugo:hotpath roots not covered by a reuse idiom or //ugo:coldpath audit",
	Applies: func(pkgPath string) bool { return !isObsPath(pkgPath) },
	Run:     runHotAlloc,
}

func runHotAlloc(p *Pass) {
	for _, n := range p.Mod.nodes {
		if n.Pkg == nil || n.Pkg.PkgPath != p.PkgPath {
			continue
		}
		if n.hot.hasDir && n.hot.dir.bad != "" {
			p.Reportf(n.hot.dir.pos, "%s", n.hot.dir.bad)
		}
		if n.hot.depth == hotCold || n.hot.dir.cold {
			continue
		}
		for _, s := range n.hot.sites {
			if s.sanction != "" || s.exit {
				continue
			}
			if n.hot.depth+s.depth < 1 {
				continue
			}
			where := fmt.Sprintf("hot depth %d", n.hot.depth+s.depth)
			if n.hot.via != "" {
				where += " via " + n.hot.via
			}
			p.Reportf(s.pos, "%s in %s (%s): %s", s.kind, shortFuncName(n), where, s.hint)
		}
	}
}
