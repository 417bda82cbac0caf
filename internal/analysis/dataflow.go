package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the value-level dataflow layer under walldet, tracekind,
// mapdet and (via the shared control-flow driver) lockhold and
// hotalloc. It adds to the boolean summaries of summary.go an intraprocedural
// abstract interpretation over go/ast+go/types: every local variable
// carries an element of a small taint lattice, statements are transfer
// functions, and control-flow merge points join environments. Each
// function's visible behavior is condensed into a taintSummary
// (intrinsic return taint, parameter→return flow, parameter→sink flow)
// and the summaries compose through the call graph in the same
// fixed-point style as computeSummaries, so a wall-clock read three
// calls away from an Emit is still attributed to the emit site.

// Taint is a bitset lattice element: the bottom is 0 (untainted), join
// is bitwise OR. The low bits are intrinsic taint sources; the
// remaining bits are synthetic per-parameter markers used to derive
// param→return and param→sink summaries from a single walk (parameter
// i is seeded with paramBit(i), so any marker surviving to a return or
// a sink names the parameter it came from).
type Taint uint32

const (
	// TaintWall marks values derived from the wall clock
	// (time.Now/Since/Until and arithmetic on their results).
	TaintWall Taint = 1 << iota
	// TaintRand marks values derived from the unseeded math/rand
	// package-level generator.
	TaintRand
	// TaintMapOrder marks values whose identity depends on map
	// iteration order (keys/values bound by a range over a map).
	TaintMapOrder
)

// realTaints masks the intrinsic sources, excluding parameter markers.
const realTaints = TaintWall | TaintRand | TaintMapOrder

// maxTrackedParams bounds the synthetic parameter markers; parameters
// beyond it are conservatively untracked (no module function comes
// close).
const maxTrackedParams = 24

// paramBit returns the synthetic marker for parameter index i (the
// receiver is index 0 on methods), or 0 when out of range.
func paramBit(i int) Taint {
	if i < 0 || i >= maxTrackedParams {
		return 0
	}
	return TaintMapOrder << (1 + uint(i))
}

// describe renders the intrinsic bits for findings.
func (t Taint) describe() string {
	var parts []string
	if t&TaintWall != 0 {
		parts = append(parts, "wall-clock")
	}
	if t&TaintRand != 0 {
		parts = append(parts, "math/rand")
	}
	if t&TaintMapOrder != 0 {
		parts = append(parts, "map-iteration-order")
	}
	if len(parts) == 0 {
		return "untainted"
	}
	return strings.Join(parts, "+")
}

// SinkFlow records that taint arriving through a parameter reaches a
// determinism-sensitive sink inside the function (or one of its
// callees): callers must treat the argument position as flowing into
// the trace/checkpoint.
type SinkFlow struct {
	// Param is the parameter index (receiver = 0 on methods).
	Param int
	// Sink describes the sink, e.g. `trace event field "Str" (comm.peerdown)`.
	Sink string
}

// taintSummary is the converged dataflow summary of one function.
type taintSummary struct {
	// ret joins the taint of every returned value: intrinsic bits for
	// taint generated inside, parameter markers for param→return flow.
	ret Taint
	// sinks is the set of param→sink flows visible at the boundary.
	sinks map[SinkFlow]bool
}

// taintSite is an intrinsic-taint value reaching a sink — the raw
// material of a walldet finding.
type taintSite struct {
	pos   token.Pos
	taint Taint  // intrinsic bits only
	sink  string // sink description
	via   string // callee name when the sink is inside a callee; "" if direct
}

// eventLitSite is one obs.Event composite literal, recorded for
// tracekind's schema cross-check.
type eventLitSite struct {
	pos        token.Pos
	kind       string    // resolved Kind constant; "" when not constant
	kindPos    token.Pos // position of the Kind value (when present)
	hasKind    bool
	positional bool // non-keyed literal (sets every field positionally)
	fields     []eventFieldSite
}

// eventFieldSite is one field set by an event literal.
type eventFieldSite struct {
	name string
	pos  token.Pos
}

// eventAssignSite is a post-literal field write (ev.Str = ...) on a
// variable whose event kind the interpreter resolved.
type eventAssignSite struct {
	pos   token.Pos
	kind  string // "" or "?" when the kind is unknown/ambiguous
	field string
}

// RetTaint returns the converged taint of the function's return values
// (intrinsic bits plus parameter markers); see paramBit.
func (n *FuncNode) RetTaint() Taint { return n.taint.ret }

// SinkFlows returns the converged param→sink flows in stable order.
func (n *FuncNode) SinkFlows() []SinkFlow {
	out := make([]SinkFlow, 0, len(n.taint.sinks))
	for sf := range n.taint.sinks {
		out = append(out, sf)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Param != out[j].Param {
			return out[i].Param < out[j].Param
		}
		return out[i].Sink < out[j].Sink
	})
	return out
}

// ---------------------------------------------------------------------------
// Control-flow driver
// ---------------------------------------------------------------------------

// flowState is one abstract environment of the forward statement
// walker. Clients implement the lattice (fork/merge) and the transfer
// functions (leaf/expr); flowStmt supplies the control flow: branches
// run on forks and merge back (the fall-through state is kept, so a
// fact established on only some paths merges with its absence), and
// loop bodies run twice so facts created on one iteration are visible
// to the next.
type flowState interface {
	fork() flowState
	merge(flowState)
	// leaf transfers one non-control-flow statement. A *ast.RangeStmt
	// passed to leaf means its header only (range expression + loop
	// variable binding); the driver runs the body separately.
	leaf(ast.Stmt)
	// expr visits a bare control-flow expression (if/for/switch
	// conditions, case values).
	expr(ast.Expr)
}

// loopAware is an optional flowState extension: a client implementing
// it is told when the driver enters and leaves a loop body (a ForStmt or
// RangeStmt), bracketing the two body runs. hotalloc and lockhold track
// loop depth with it, the taint walk the innermost map range.
type loopAware interface {
	enterLoop(loop ast.Stmt)
	exitLoop()
}

// guardAware is an optional flowState extension: a client implementing
// it is told the condition of each if statement, bracketing both arms
// (a for loop's condition reaches it through loopAware). The taint walk
// reads the guards for mapdet's min/max exemption.
type guardAware interface {
	enterGuard(cond ast.Expr)
	exitGuard()
}

// flowStmts runs the driver over a statement list.
func flowStmts(list []ast.Stmt, env flowState) {
	for _, st := range list {
		flowStmt(st, env)
	}
}

// flowStmt dispatches one statement: control flow here, everything else
// to the client's leaf transfer.
func flowStmt(st ast.Stmt, env flowState) {
	switch s := st.(type) {
	case *ast.BlockStmt:
		flowStmts(s.List, env)
	case *ast.IfStmt:
		if s.Init != nil {
			flowStmt(s.Init, env)
		}
		env.expr(s.Cond)
		ga, _ := env.(guardAware)
		if ga != nil {
			ga.enterGuard(s.Cond)
		}
		then := env.fork()
		flowStmts(s.Body.List, then)
		if s.Else != nil {
			alt := env.fork()
			flowStmt(s.Else, alt)
			env.merge(alt)
		}
		if ga != nil {
			ga.exitGuard()
		}
		env.merge(then)
	case *ast.ForStmt:
		if s.Init != nil {
			flowStmt(s.Init, env)
		}
		if s.Cond != nil {
			env.expr(s.Cond)
		}
		la, _ := env.(loopAware)
		if la != nil {
			la.enterLoop(s)
		}
		for i := 0; i < 2; i++ {
			it := env.fork()
			flowStmts(s.Body.List, it)
			if s.Post != nil {
				flowStmt(s.Post, it)
			}
			if s.Cond != nil {
				it.expr(s.Cond)
			}
			env.merge(it)
		}
		if la != nil {
			la.exitLoop()
		}
	case *ast.RangeStmt:
		env.leaf(s) // header: range expression + key/value binding
		la, _ := env.(loopAware)
		if la != nil {
			la.enterLoop(s)
		}
		for i := 0; i < 2; i++ {
			it := env.fork()
			flowStmts(s.Body.List, it)
			env.merge(it)
		}
		if la != nil {
			la.exitLoop()
		}
	case *ast.SwitchStmt:
		if s.Init != nil {
			flowStmt(s.Init, env)
		}
		if s.Tag != nil {
			env.expr(s.Tag)
		}
		flowClauses(s.Body, env)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			flowStmt(s.Init, env)
		}
		env.leaf(s.Assign)
		flowClauses(s.Body, env)
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			branch := env.fork()
			if cc.Comm != nil {
				flowStmt(cc.Comm, branch)
			}
			flowStmts(cc.Body, branch)
			env.merge(branch)
		}
	case *ast.LabeledStmt:
		flowStmt(s.Stmt, env)
	default:
		env.leaf(st)
	}
}

// flowClauses runs each case body on a fork and merges back.
func flowClauses(body *ast.BlockStmt, env flowState) {
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		branch := env.fork()
		for _, e := range cc.List {
			branch.expr(e)
		}
		flowStmts(cc.Body, branch)
		env.merge(branch)
	}
}

// ---------------------------------------------------------------------------
// Taint interpretation
// ---------------------------------------------------------------------------

// taintPropagators are non-module packages treated as pure data
// transformations: taint flows from arguments (and stdlib-typed
// receivers) through to results. Any other non-module call returns only
// the map-iteration order of its arguments — deliberately an
// under-approximation for the clock, so a dial error does not drag the
// wall-clock deadline that timed it out into every error message (the
// over-approximate alternative drowns real findings in suppressions),
// while filepath.Base(k) is still chosen by the order k was visited in.
var taintPropagators = map[string]bool{
	"fmt": true, "strconv": true, "strings": true, "bytes": true,
	"math": true, "errors": true, "time": true, "sort": true,
	"unicode": true, "unicode/utf8": true,
}

// wallSources are the time package functions that read the wall clock.
var wallSources = map[string]bool{"Now": true, "Since": true, "Until": true}

// mathRandCtors are the math/rand functions that build a local
// generator rather than draw from one; every other math/rand call and
// *rand.Rand method is a TaintRand source.
var mathRandCtors = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

// taintWalker is the per-function context shared by all forks of the
// environment during one walk.
type taintWalker struct {
	m       *Module
	n       *FuncNode
	info    *types.Info
	params  []types.Object // ordered; receiver first on methods
	results []types.Object // named results, for bare returns
	ret     Taint
	sinks   map[SinkFlow]bool
	// exempt marks the obs package itself: the tracer's stamping
	// (e.Wall = time.Now(), Seq, causal Clock/Orig) is the sanctioned
	// wall→trace path and must not become sink summaries that alarm
	// every Emit caller.
	exempt bool

	// mapdet's view of the walk (mapdet.go): the innermost map range
	// and the scopes it shadows, the outer slices appended to from
	// map-ordered values, and the last position at which each object
	// was handed to a sorter.
	scope     orderScope
	outer     []orderScope
	collected []collection
	sortedAt  map[types.Object]token.Pos
}

// taintEnv maps local objects to taint; kinds tracks which event kind
// an obs.Event-typed local holds ("?" = joined conflicting kinds).
type taintEnv struct {
	w     *taintWalker
	vars  map[types.Object]Taint
	kinds map[types.Object]string
}

func (e *taintEnv) fork() flowState {
	vars := make(map[types.Object]Taint, len(e.vars))
	for k, v := range e.vars {
		vars[k] = v
	}
	kinds := make(map[types.Object]string, len(e.kinds))
	for k, v := range e.kinds {
		kinds[k] = v
	}
	return &taintEnv{w: e.w, vars: vars, kinds: kinds}
}

func (e *taintEnv) merge(other flowState) {
	o := other.(*taintEnv)
	for k, v := range o.vars {
		e.vars[k] |= v
	}
	for k, v := range o.kinds {
		if have, ok := e.kinds[k]; ok && have != v {
			e.kinds[k] = "?"
		} else {
			e.kinds[k] = v
		}
	}
}

func (e *taintEnv) expr(x ast.Expr) { e.eval(x) }

func (e *taintEnv) leaf(st ast.Stmt) {
	switch s := st.(type) {
	case *ast.AssignStmt:
		e.assign(s)
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				var t Taint
				var val ast.Expr
				switch {
				case len(vs.Values) == len(vs.Names):
					val = vs.Values[i]
				case len(vs.Values) == 1:
					val = vs.Values[0]
				}
				if val != nil {
					t = e.eval(val)
				}
				if obj := e.w.info.Defs[name]; obj != nil {
					e.vars[obj] = t
					e.trackKind(obj, val)
				}
			}
		}
	case *ast.ExprStmt:
		e.eval(s.X)
	case *ast.ReturnStmt:
		if len(s.Results) == 0 {
			for _, obj := range e.w.results {
				e.w.ret |= e.vars[obj]
			}
		}
		for _, r := range s.Results {
			e.w.ret |= e.eval(r)
		}
	case *ast.SendStmt:
		e.eval(s.Chan)
		e.eval(s.Value)
	case *ast.IncDecStmt:
		e.eval(s.X)
	case *ast.GoStmt:
		e.eval(s.Call)
	case *ast.DeferStmt:
		e.eval(s.Call)
	case *ast.RangeStmt:
		e.rangeHeader(s)
	}
}

// rangeHeader transfers the header of a range statement: the key and
// value of a map range are map-iteration-order tainted; every range
// inherits the taint of the ranged expression itself.
func (e *taintEnv) rangeHeader(s *ast.RangeStmt) {
	t := e.eval(s.X)
	keyT, valT := t, t
	if rangesMap(e.w.info, s) {
		keyT |= TaintMapOrder
		valT |= TaintMapOrder
	} else if tv := e.w.info.Types[s.X]; tv.Type != nil {
		if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
			valT = 0 // channel payloads are not modeled
		}
	}
	e.bindLoopVar(s.Key, keyT)
	e.bindLoopVar(s.Value, valT)
}

// rangesMap reports whether s ranges over a map: where map-iteration
// order enters the walk.
func rangesMap(info *types.Info, s *ast.RangeStmt) bool {
	tv := info.Types[s.X]
	if tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

func (e *taintEnv) bindLoopVar(x ast.Expr, t Taint) {
	id, ok := x.(*ast.Ident)
	if !ok || id == nil || id.Name == "_" {
		return
	}
	if obj := e.w.info.Defs[id]; obj != nil {
		e.vars[obj] = t
	} else if obj := e.w.info.Uses[id]; obj != nil {
		e.vars[obj] = t
	}
}

// assign transfers one assignment: RHS taints are computed in order,
// then stored — strong updates on plain identifiers, weak (join)
// updates on fields and elements.
func (e *taintEnv) assign(s *ast.AssignStmt) {
	compound := s.Tok != token.ASSIGN && s.Tok != token.DEFINE
	if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
		// Multi-value: one joined taint for every LHS (per-result
		// precision is not worth a tuple lattice here).
		t := e.eval(s.Rhs[0])
		for _, l := range s.Lhs {
			e.checkOrder(s, l, s.Rhs[0], t)
			e.assignTo(l, nil, t, compound)
		}
		return
	}
	for i, l := range s.Lhs {
		var t Taint
		var val ast.Expr
		if i < len(s.Rhs) {
			val = s.Rhs[i]
			t = e.eval(val)
			e.checkOrder(s, l, val, t)
		}
		e.assignTo(l, val, t, compound)
		if id, ok := l.(*ast.Ident); ok && !compound {
			if obj := e.objOf(id); obj != nil {
				e.trackKind(obj, val)
			}
		}
	}
}

func (e *taintEnv) objOf(id *ast.Ident) types.Object {
	if obj := e.w.info.Defs[id]; obj != nil {
		return obj
	}
	return e.w.info.Uses[id]
}

// trackKind remembers which event kind an obs.Event-typed variable was
// initialized with, so later `ev.Field = x` writes can be checked
// against the schema.
func (e *taintEnv) trackKind(obj types.Object, val ast.Expr) {
	if obj == nil || obj.Type() == nil || !isEventType(obj.Type()) {
		delete(e.kinds, obj)
		return
	}
	lit := eventLitOf(val)
	if lit == nil {
		e.kinds[obj] = "?"
		return
	}
	kind := "?"
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if id, ok := kv.Key.(*ast.Ident); ok && id.Name == "Kind" {
			if k, isConst := resolveKind(e.w.info, kv.Value); isConst {
				kind = k
			}
		}
	}
	e.kinds[obj] = kind
}

// eventLitOf unwraps ev := obs.Event{...} / &obs.Event{...}.
func eventLitOf(val ast.Expr) *ast.CompositeLit {
	switch v := unparen(val).(type) {
	case *ast.CompositeLit:
		return v
	case *ast.UnaryExpr:
		if v.Op == token.AND {
			if lit, ok := unparen(v.X).(*ast.CompositeLit); ok {
				return lit
			}
		}
	}
	return nil
}

// assignTo stores taint t into the location l; val is the source
// expression when available (single-value assignments).
func (e *taintEnv) assignTo(l, val ast.Expr, t Taint, compound bool) {
	switch x := unparen(l).(type) {
	case *ast.Ident:
		if x.Name == "_" {
			return
		}
		if obj := e.objOf(x); obj != nil {
			if compound {
				e.vars[obj] |= t
			} else {
				e.vars[obj] = t
			}
		}
	case *ast.SelectorExpr:
		e.checkFieldSink(x, val, t)
		if sel, ok := e.w.info.Selections[x]; ok {
			e.vars[sel.Obj()] |= t
		}
	case *ast.IndexExpr:
		// elem[i] = v weakly updates the container, not the expression's
		// root: `co.stats.Ratio[i] = v` taints the Ratio field, and must
		// not taint co itself (which would bleed into every co.X read).
		e.assignTo(x.X, nil, t, true)
	case *ast.StarExpr:
		e.assignTo(x.X, nil, t, true)
	}
}

// checkFieldSink handles `base.Field = x` writes on sink types: event
// field assignments are recorded for tracekind, and tainted values
// stored into an event or checkpoint become sink hits. A write to the
// Kind field re-resolves the variable's tracked kind.
func (e *taintEnv) checkFieldSink(sel *ast.SelectorExpr, val ast.Expr, t Taint) {
	tv, ok := e.w.info.Types[sel.X]
	if !ok || tv.Type == nil {
		return
	}
	field := sel.Sel.Name
	switch {
	case isEventType(tv.Type):
		var rootObj types.Object
		kind := "?"
		if root := rootIdent(sel.X); root != nil {
			if rootObj = e.objOf(root); rootObj != nil {
				if k, ok := e.kinds[rootObj]; ok {
					kind = k
				}
			}
		}
		if field == "Kind" {
			assigned := "?"
			if val != nil {
				if k, isConst := resolveKind(e.w.info, val); isConst {
					assigned = k
				}
			}
			if rootObj != nil {
				e.kinds[rootObj] = assigned
			}
			e.w.n.evAssigns = append(e.w.n.evAssigns, eventAssignSite{
				pos: sel.Sel.Pos(), kind: assigned, field: field,
			})
			return
		}
		e.w.n.evAssigns = append(e.w.n.evAssigns, eventAssignSite{
			pos: sel.Sel.Pos(), kind: kind, field: field,
		})
		e.w.sinkHit(sel.Sel.Pos(), t, eventSinkDesc(field, kind), "")
	case isCheckpointType(tv.Type):
		e.w.sinkHit(sel.Sel.Pos(), t, "checkpoint field "+field, "")
	}
}

// eval computes the taint of an expression, recording sink hits and
// sanitizer effects along the way. Evaluation order follows source
// order, matching the program's own sequencing.
func (e *taintEnv) eval(x ast.Expr) Taint {
	switch v := unparen(x).(type) {
	case *ast.Ident:
		if obj := e.objOf(v); obj != nil {
			return e.vars[obj]
		}
	case *ast.SelectorExpr:
		var t Taint
		if sel, ok := e.w.info.Selections[v]; ok {
			t = e.vars[sel.Obj()] | e.eval(v.X)
		} else if obj := e.w.info.Uses[v.Sel]; obj != nil {
			t = e.vars[obj] // package-qualified var/const
		}
		return t
	case *ast.CallExpr:
		return e.call(v)
	case *ast.BinaryExpr:
		return e.eval(v.X) | e.eval(v.Y)
	case *ast.UnaryExpr:
		return e.eval(v.X)
	case *ast.StarExpr:
		return e.eval(v.X)
	case *ast.IndexExpr:
		return e.eval(v.X) | e.eval(v.Index)
	case *ast.SliceExpr:
		t := e.eval(v.X)
		for _, ix := range []ast.Expr{v.Low, v.High, v.Max} {
			if ix != nil {
				t |= e.eval(ix)
			}
		}
		return t
	case *ast.TypeAssertExpr:
		return e.eval(v.X)
	case *ast.CompositeLit:
		return e.compositeLit(v)
	case *ast.KeyValueExpr:
		return e.eval(v.Value)
	case *ast.FuncLit:
		return 0 // its body is its own graph node
	}
	return 0
}

// compositeLit evaluates a composite literal, recording event-schema
// sites and event/checkpoint sink hits for tainted fields.
func (e *taintEnv) compositeLit(lit *ast.CompositeLit) Taint {
	tv, hasType := e.w.info.Types[lit]
	isEvent := hasType && tv.Type != nil && isEventType(tv.Type)
	isCkpt := hasType && tv.Type != nil && isCheckpointType(tv.Type)

	var site *eventLitSite
	if isEvent {
		site = &eventLitSite{pos: lit.Pos()}
		// Resolve the kind up front: fields may precede it lexically.
		for _, el := range lit.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			if id, ok := kv.Key.(*ast.Ident); ok && id.Name == "Kind" {
				site.hasKind = true
				site.kindPos = kv.Value.Pos()
				site.kind, _ = resolveKind(e.w.info, kv.Value)
			}
		}
	}
	var structType *types.Struct
	if hasType && tv.Type != nil {
		structType, _ = tv.Type.Underlying().(*types.Struct)
	}

	var all Taint
	for i, el := range lit.Elts {
		var valExpr ast.Expr
		var name string
		var pos token.Pos
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			valExpr = kv.Value
			pos = kv.Pos()
			if id, ok := kv.Key.(*ast.Ident); ok {
				name = id.Name
			}
		} else {
			valExpr = el
			pos = el.Pos()
			if isEvent && site != nil {
				site.positional = true
			}
			if structType != nil && i < structType.NumFields() {
				name = structType.Field(i).Name()
			}
		}
		t := e.eval(valExpr)
		all |= t
		switch {
		case isEvent && name != "" && name != "Kind":
			site.fields = append(site.fields, eventFieldSite{name: name, pos: pos})
			e.w.sinkHit(valExpr.Pos(), t, eventSinkDesc(name, site.kind), "")
		case isCkpt && name != "":
			e.w.sinkHit(valExpr.Pos(), t, "checkpoint field "+name, "")
		}
	}
	if isEvent {
		e.w.n.evLits = append(e.w.n.evLits, *site)
	}
	return all
}

// resolveKind extracts the constant string value of an event Kind
// expression.
func resolveKind(info *types.Info, v ast.Expr) (kind string, constant_ bool) {
	if tv, ok := info.Types[v]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
		return constant.StringVal(tv.Value), true
	}
	return "", false
}

// eventSinkDesc names an event-field sink for findings.
func eventSinkDesc(field, kind string) string {
	if kind == "" || kind == "?" {
		return "trace event field " + field
	}
	return "trace event field " + field + " (" + kind + ")"
}

// call computes the taint of a call expression: sources, sanitizers,
// module summaries, and the curated stdlib propagation table.
func (e *taintEnv) call(call *ast.CallExpr) Taint {
	info := e.w.info
	fun := unparen(call.Fun)

	// A directly-invoked literal is interpreted inline: its body sees
	// the captured environment, so `func() { emit(x) }()` attributes
	// x's taint here rather than in an unseeded standalone walk.
	if lit, ok := fun.(*ast.FuncLit); ok {
		argTaints := make([]Taint, len(call.Args))
		for i, a := range call.Args {
			argTaints[i] = e.eval(a)
		}
		return e.inlineLit(lit, argTaints)
	}

	// Type conversions propagate (time.Duration(x), float64(x), ...).
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		var t Taint
		for _, a := range call.Args {
			t |= e.eval(a)
		}
		return t
	}

	// Builtins: append/min/max propagate; copy joins src into dst;
	// len/cap/make/new and friends launder taint (a count is not the
	// clock value it measured).
	if id, ok := fun.(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			var t Taint
			for _, a := range call.Args {
				t |= e.eval(a)
			}
			switch id.Name {
			case "append", "min", "max":
				return t
			case "copy":
				if len(call.Args) == 2 {
					if root := rootIdent(call.Args[0]); root != nil {
						if obj := e.objOf(root); obj != nil {
							e.vars[obj] |= e.eval(call.Args[1])
						}
					}
				}
				return 0
			default:
				return 0
			}
		}
	}

	args := alignedArgs(info, call)
	taints := make([]Taint, len(args))
	for i, a := range args {
		taints[i] = e.eval(a)
	}
	// Closures handed to the callee (sync.Once.Do, sort.Slice, ...) are
	// assumed to run synchronously: interpret their bodies inline so
	// captured variables keep their taint and sinks inside the closure
	// are attributed to this function.
	for _, a := range call.Args {
		if lit, ok := unparen(a).(*ast.FuncLit); ok {
			e.inlineLit(lit, nil)
		}
	}
	joinAll := func() Taint {
		var t Taint
		for _, at := range taints {
			t |= at
		}
		return t
	}

	// Stdlib sorting sanitizes the first argument's map-order taint —
	// a sorted key slice no longer depends on iteration order.
	if pkgPath, name, ok := pkgFuncOf(info, fun); ok {
		if fns := sortFuncs[pkgPath]; fns != nil && fns[name] {
			e.sanitizeArg(call, 0)
			return 0
		}
		if pkgPath == "time" && wallSources[name] {
			return TaintWall
		}
		if pkgPath == "math/rand" && !mathRandCtors[name] {
			return TaintRand | joinAll()
		}
		if callees := e.w.m.calleesOf(info, fun); len(callees) > 0 {
			return e.applySummaries(call, callees, taints)
		}
		if taintPropagators[pkgPath] {
			return joinAll()
		}
		return joinAll() & TaintMapOrder
	}

	// Method and local calls: module summaries first.
	if callees := e.w.m.calleesOf(info, fun); len(callees) > 0 {
		return e.applySummaries(call, callees, taints)
	}
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if s, ok := info.Selections[sel]; ok {
			if fn, ok := s.Obj().(*types.Func); ok && fn.Pkg() != nil {
				// Methods on *rand.Rand (r.Float64(), r.Intn(...)) are
				// sources just like the package-level rand functions.
				if fn.Pkg().Path() == "math/rand" && !mathRandCtors[sel.Sel.Name] {
					return TaintRand | joinAll()
				}
				if taintPropagators[fn.Pkg().Path()] {
					return joinAll()
				}
			}
			// error.Error() / Stringer.String() formats the receiver.
			name := sel.Sel.Name
			if (name == "Error" || name == "String") && len(call.Args) == 0 {
				return joinAll()
			}
		}
	}
	return joinAll() & TaintMapOrder
}

// sanitizeArg clears map-order taint from the root object of argument
// i, and records where it was sorted for mapdet's collection rule.
func (e *taintEnv) sanitizeArg(call *ast.CallExpr, i int) {
	if i >= len(call.Args) {
		return
	}
	e.eval(call.Args[i])
	if root := rootIdent(call.Args[i]); root != nil {
		if obj := e.objOf(root); obj != nil {
			e.vars[obj] &^= TaintMapOrder
			e.w.sortedAt[obj] = max(e.w.sortedAt[obj], call.Pos())
		}
	}
}

// applySummaries composes the callees' taint summaries into this call:
// intrinsic return taint joins in directly, parameter markers select
// argument taints, and param→sink flows fire with whatever taint the
// matching argument carries here (intrinsic bits become report sites,
// parameter markers lift the flow into this function's own summary).
func (e *taintEnv) applySummaries(call *ast.CallExpr, callees []*FuncNode, taints []Taint) Taint {
	argTaint := func(c *FuncNode, i int) Taint {
		sig := calleeSig(c)
		if sig != nil && sig.Variadic() {
			last := len(paramList(c)) - 1
			if i == last {
				var t Taint
				for j := last; j < len(taints); j++ {
					t |= taints[j]
				}
				return t
			}
		}
		if i < 0 || i >= len(taints) {
			return 0
		}
		return taints[i]
	}
	var out Taint
	for _, c := range callees {
		out |= c.taint.ret & realTaints
		for i := 0; i < maxTrackedParams; i++ {
			if c.taint.ret&paramBit(i) != 0 {
				out |= argTaint(c, i)
			}
		}
		// A callee that sorts its argument hands back order-independent
		// data.
		if c.sum.SortsArg {
			e.sanitizeArg(call, 0)
		}
		for sf := range c.taint.sinks {
			at := argTaint(c, sf.Param)
			if rt := at & realTaints; rt != 0 {
				e.w.n.taintSites = append(e.w.n.taintSites, taintSite{
					pos: call.Pos(), taint: rt, sink: sf.Sink, via: shortFuncName(c),
				})
			}
			for j := 0; j < maxTrackedParams; j++ {
				if at&paramBit(j) != 0 {
					e.w.sinks[SinkFlow{Param: j, Sink: sf.Sink}] = true
				}
			}
		}
	}
	return out
}

// inlineLit interprets a function literal's body in the current
// environment. Closures see their captured variables, so a wall-clock
// value flowing into an Emit inside `p.down.Do(func() { ... })` is
// attributed during the enclosing function's walk (the literal's own
// standalone walk starts from an unseeded environment and cannot see
// captures). argTaints, when the literal is invoked directly, seeds its
// parameters; the return value is the joined taint of its returns.
func (e *taintEnv) inlineLit(lit *ast.FuncLit, argTaints []Taint) Taint {
	node := e.w.m.byLit[lit]
	if node == nil {
		return 0
	}
	for i, obj := range paramList(node) {
		var t Taint
		if i < len(argTaints) {
			t = argTaints[i]
		}
		e.vars[obj] = t
	}
	savedRet, savedResults := e.w.ret, e.w.results
	e.w.ret, e.w.results = 0, resultObjs(node)
	flowStmts(lit.Body.List, e)
	ret := e.w.ret
	e.w.ret, e.w.results = savedRet, savedResults
	return ret
}

// sinkHit records taint t reaching a sink: intrinsic bits become a
// taintSite (walldet's raw finding), parameter markers become SinkFlow
// summary entries for callers.
func (w *taintWalker) sinkHit(pos token.Pos, t Taint, sink, via string) {
	if w.exempt {
		return
	}
	if rt := t & realTaints; rt != 0 {
		w.n.taintSites = append(w.n.taintSites, taintSite{pos: pos, taint: rt, sink: sink, via: via})
	}
	for i := 0; i < maxTrackedParams; i++ {
		if t&paramBit(i) != 0 {
			w.sinks[SinkFlow{Param: i, Sink: sink}] = true
		}
	}
}

// ---------------------------------------------------------------------------
// Summary fixed point
// ---------------------------------------------------------------------------

// computeTaintSummaries walks every function body to a module-wide
// fixed point. The per-walk transfer is monotone in the callee
// summaries (clears are local and input-independent), so iteration
// converges; the bound is a safety net for pathological graphs.
func computeTaintSummaries(m *Module) {
	for _, n := range m.nodes {
		n.taint.sinks = map[SinkFlow]bool{}
	}
	const maxRounds = 20
	for round := 0; round < maxRounds; round++ {
		changed := false
		m.Rounds++
		for _, n := range m.nodes {
			if n.body() == nil {
				continue
			}
			if walkTaint(m, n) {
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// walkTaint runs one abstract interpretation of n's body and merges the
// result into its summary; reports whether the summary grew. Recorded
// sites (taintSites, evLits, evAssigns, orderSites) are rebuilt on every
// walk — the final round leaves the converged set in place.
func walkTaint(m *Module, n *FuncNode) bool {
	n.taintSites = nil
	n.evLits = nil
	n.evAssigns = nil
	n.orderSites = nil
	w := &taintWalker{
		m:        m,
		n:        n,
		info:     n.Pkg.Info,
		params:   paramList(n),
		results:  resultObjs(n),
		sinks:    map[SinkFlow]bool{},
		exempt:   strings.HasSuffix(n.Pkg.PkgPath, "internal/obs"),
		sortedAt: map[types.Object]token.Pos{},
	}
	env := &taintEnv{w: w, vars: map[types.Object]Taint{}, kinds: map[types.Object]string{}}
	for i, obj := range w.params {
		env.vars[obj] = paramBit(i)
	}
	flowStmts(n.body().List, env)
	w.unsortedCollections()

	// Loop bodies are interpreted twice and closures may be walked both
	// inline and standalone, so recorded sites can repeat: collapse by
	// position (joining taint bits) before analyzers read them.
	n.taintSites = dedupTaintSites(n.taintSites)
	n.evLits = dedupEventLits(n.evLits)
	n.evAssigns = dedupEventAssigns(n.evAssigns)

	changed := false
	if w.ret&^n.taint.ret != 0 {
		n.taint.ret |= w.ret
		changed = true
	}
	for sf := range w.sinks {
		if !n.taint.sinks[sf] {
			n.taint.sinks[sf] = true
			changed = true
		}
	}
	return changed
}

func dedupTaintSites(sites []taintSite) []taintSite {
	type key struct {
		pos  token.Pos
		sink string
		via  string
	}
	idx := map[key]int{}
	out := sites[:0]
	for _, s := range sites {
		k := key{s.pos, s.sink, s.via}
		if i, ok := idx[k]; ok {
			out[i].taint |= s.taint
			continue
		}
		idx[k] = len(out)
		out = append(out, s)
	}
	return out
}

func dedupEventLits(lits []eventLitSite) []eventLitSite {
	seen := map[token.Pos]bool{}
	out := lits[:0]
	for _, l := range lits {
		if seen[l.pos] {
			continue
		}
		seen[l.pos] = true
		out = append(out, l)
	}
	return out
}

func dedupEventAssigns(as []eventAssignSite) []eventAssignSite {
	type key struct {
		pos   token.Pos
		kind  string
		field string
	}
	seen := map[key]bool{}
	out := as[:0]
	for _, a := range as {
		k := key{a.pos, a.kind, a.field}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, a)
	}
	return out
}

// alignedArgs returns the call's arguments receiver-first, aligned with
// paramList indexing.
func alignedArgs(info *types.Info, call *ast.CallExpr) []ast.Expr {
	args := make([]ast.Expr, 0, len(call.Args)+1)
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		if _, isMethod := info.Selections[sel]; isMethod {
			args = append(args, sel.X)
		}
	}
	return append(args, call.Args...)
}

// paramList returns the parameters in summary order: receiver first on
// methods, then declared parameters.
func paramList(n *FuncNode) []types.Object {
	var out []types.Object
	addField := func(f *ast.Field) {
		for _, name := range f.Names {
			if obj := n.Pkg.Info.Defs[name]; obj != nil {
				out = append(out, obj)
			}
		}
	}
	var ftype *ast.FuncType
	if n.Decl != nil {
		ftype = n.Decl.Type
		if n.Decl.Recv != nil {
			for _, f := range n.Decl.Recv.List {
				addField(f)
			}
		}
	} else {
		ftype = n.Lit.Type
	}
	if ftype.Params != nil {
		for _, f := range ftype.Params.List {
			addField(f)
		}
	}
	return out
}

// resultObjs returns the named result objects (for bare returns).
func resultObjs(n *FuncNode) []types.Object {
	var ftype *ast.FuncType
	if n.Decl != nil {
		ftype = n.Decl.Type
	} else {
		ftype = n.Lit.Type
	}
	if ftype.Results == nil {
		return nil
	}
	var out []types.Object
	for _, f := range ftype.Results.List {
		for _, name := range f.Names {
			if obj := n.Pkg.Info.Defs[name]; obj != nil {
				out = append(out, obj)
			}
		}
	}
	return out
}

// calleeSig returns the callee's signature when known.
func calleeSig(c *FuncNode) *types.Signature {
	if c.Obj != nil {
		sig, _ := c.Obj.Type().(*types.Signature)
		return sig
	}
	if c.Lit != nil {
		if tv, ok := c.Pkg.Info.Types[c.Lit]; ok && tv.Type != nil {
			sig, _ := tv.Type.(*types.Signature)
			return sig
		}
	}
	return nil
}

// shortFuncName renders a callee for "via" clauses in findings.
func shortFuncName(c *FuncNode) string {
	if c.Obj == nil {
		return c.Name()
	}
	name := c.Obj.Name()
	if sig, ok := c.Obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + name
		}
	}
	return name
}

// pkgFuncOf matches e against the package-qualified shape pkg.Name (a
// function in call position, or a package-level variable such as
// os.Stdout) and returns the package path and name. It is the one
// package-name resolution in the analyzers.
func pkgFuncOf(info *types.Info, e ast.Expr) (path, name string, ok bool) {
	sel, isSel := unparen(e).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	id, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	pn, isPkg := info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// isEventType reports whether t is (a pointer to) obs.Event.
func isEventType(t types.Type) bool {
	return isNamedIn(t, "Event", "internal/obs")
}

// isCheckpointType reports whether t is (a pointer to) ug.Checkpoint.
func isCheckpointType(t types.Type) bool {
	return isNamedIn(t, "Checkpoint", "internal/ug")
}

// isNamedIn matches a named type by name and declaring-package path
// fragment; pointer indirection is stripped. Path matching is by
// substring so fixture packages under testdata mirror the real layout.
func isNamedIn(t types.Type, name, pathFragment string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == name && obj.Pkg() != nil &&
		strings.Contains(obj.Pkg().Path()+"/", pathFragment+"/")
}
