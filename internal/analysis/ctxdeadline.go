package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxDeadline checks deadline discipline on blocking network and comm
// operations: a raw read or write on a connection-like object must have
// a matching deadline established on every path that reaches it, and
// inherently unbounded operations (net.Dial, mailbox receives) are
// surfaced so each one either gains a bound or carries a justified
// //lint:ignore documenting its shutdown path.
//
// Two layers cooperate. computeIOParams (run from BuildModule) is an
// interprocedural fixed point computing, per function, which parameters
// it performs raw reads/writes on — so `p.write(...)` is known to write
// on p's connection three calls deep. The analyzer itself is an
// intraprocedural MUST analysis over the flow driver (dataflow.go): a
// branch that sets a deadline only sometimes does not count, and
// setting the zero time.Time clears the guard. A function that manages
// deadlines for an object internally (any non-clearing Set*Deadline on
// a parameter root) masks that direction from its summary: callers are
// not re-alarmed for I/O the callee already bounds.
//
// "Connection-like" means the object's own type is net.Conn, or it is a
// struct holding a net.Conn field (the peer pattern: bufio reader/writer
// plus the conn they wrap). Raw helpers on generic io.Reader/io.Writer
// parameters are deliberately not flagged at their definition — the
// finding lands at the call site that passes a connection in, which is
// where the deadline belongs.
var CtxDeadline = &Analyzer{
	Name: "ctxdeadline",
	Doc:  "blocking net/comm operation reachable without a deadline on some path",
	Applies: func(pkgPath string) bool {
		return strings.Contains(pkgPath+"/", "/comm/")
	},
	Run: runCtxDeadline,
}

// ioKind classifies raw I/O directions for parameter summaries.
type ioKind uint8

const (
	ioRead ioKind = 1 << iota
	ioWrite
)

// ioTarget is one operand of a call that undergoes raw I/O.
type ioTarget struct {
	expr ast.Expr
	kind ioKind
}

// readMethodNames/writeMethodNames are stdlib method names that block on
// the wire when the receiver wraps a connection.
var readMethodNames = map[string]bool{
	"Read": true, "ReadByte": true, "ReadRune": true, "ReadString": true,
	"ReadBytes": true, "Peek": true, "Discard": true,
}

var writeMethodNames = map[string]bool{
	"Write": true, "WriteByte": true, "WriteString": true, "WriteRune": true,
	"Flush": true,
}

// rawIOTargets classifies a non-module call: which operands does it
// read from / write to directly? Module calls are resolved through
// ioParams summaries instead and must not reach here.
func rawIOTargets(info *types.Info, call *ast.CallExpr) []ioTarget {
	if path, name, ok := pkgFuncOf(info, call.Fun); ok {
		arg := func(i int, k ioKind) []ioTarget {
			if i < len(call.Args) {
				return []ioTarget{{call.Args[i], k}}
			}
			return nil
		}
		switch path {
		case "io":
			switch name {
			case "ReadFull", "ReadAtLeast", "ReadAll":
				return arg(0, ioRead)
			case "WriteString":
				return arg(0, ioWrite)
			case "Copy", "CopyN":
				return append(arg(0, ioWrite), arg(1, ioRead)...)
			}
		case "encoding/binary":
			switch name {
			case "Read":
				return arg(0, ioRead)
			case "Write":
				return arg(0, ioWrite)
			}
		}
		return nil
	}
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if _, isMethod := info.Selections[sel]; !isMethod {
		return nil
	}
	name := sel.Sel.Name
	switch {
	case readMethodNames[name]:
		return []ioTarget{{sel.X, ioRead}}
	case writeMethodNames[name]:
		return []ioTarget{{sel.X, ioWrite}}
	}
	return nil
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

// ioOperands calls fn for each operand a call performs raw I/O on:
// rawIOTargets for a non-module call, the callees' ioParams summaries
// otherwise. via is "" for direct I/O and " (via <callee>)" for I/O in
// a callee, ready to append to a finding.
func ioOperands(info *types.Info, call *ast.CallExpr, callees []*FuncNode, fn func(arg ast.Expr, k ioKind, via string)) {
	if len(callees) == 0 {
		for _, t := range rawIOTargets(info, call) {
			fn(t.expr, t.kind, "")
		}
		return
	}
	args := alignedArgs(info, call)
	for _, c := range callees {
		for i, k := range c.ioParams {
			if k != 0 && i < len(args) {
				fn(args[i], k, " (via "+shortFuncName(c)+")")
			}
		}
	}
}

// computeIOParams converges the per-function raw-I/O parameter
// summaries over the call graph (monotone, so a plain sweep-to-fixpoint
// terminates).
func computeIOParams(m *Module) {
	for _, n := range m.nodes {
		n.ioParams = make([]ioKind, len(paramList(n)))
	}
	for changed := true; changed; {
		changed = false
		for _, n := range m.nodes {
			if n.body() == nil {
				continue
			}
			if scanIOParams(m, n) {
				changed = true
			}
		}
	}
}

// scanIOParams records which of n's parameters undergo raw I/O,
// directly or via module callees; it reports whether the summary grew.
// Directions the function itself bounds (a non-clearing Set*Deadline on
// the parameter root) are masked out.
func scanIOParams(m *Module, n *FuncNode) bool {
	info := n.Pkg.Info
	index := map[types.Object]int{}
	for i, obj := range paramList(n) {
		index[obj] = i
	}
	paramIdx := func(e ast.Expr) (int, bool) {
		root := rootIdent(e)
		if root == nil {
			return 0, false
		}
		obj := info.Uses[root]
		if obj == nil {
			obj = info.Defs[root]
		}
		i, ok := index[obj]
		return i, ok && i < len(n.ioParams)
	}
	mask := make([]ioKind, len(n.ioParams))
	walkShallow(n.body(), func(nd ast.Node) bool {
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		if dir, target, clearing := deadlineSetter(info, call); dir != 0 && !clearing {
			if i, ok := paramIdx(target); ok {
				mask[i] |= dir
			}
		}
		return true
	})
	changed := false
	add := func(e ast.Expr, k ioKind, _ string) {
		i, ok := paramIdx(e)
		if !ok {
			return
		}
		k &^= mask[i]
		if n.ioParams[i]&k != k {
			n.ioParams[i] |= k
			changed = true
		}
	}
	walkShallow(n.body(), func(nd ast.Node) bool {
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		ioOperands(info, call, m.calleesOf(info, call.Fun), add)
		return true
	})
	return changed
}

// deadlineSetter matches x.SetDeadline / SetReadDeadline /
// SetWriteDeadline calls: dir is the guarded direction(s), target the
// receiver, clearing whether the argument is the zero time.Time
// (which removes the bound rather than setting one).
func deadlineSetter(info *types.Info, call *ast.CallExpr) (dir ioKind, target ast.Expr, clearing bool) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || len(call.Args) != 1 {
		return 0, nil, false
	}
	if _, isMethod := info.Selections[sel]; !isMethod {
		return 0, nil, false
	}
	switch sel.Sel.Name {
	case "SetDeadline":
		dir = ioRead | ioWrite
	case "SetReadDeadline":
		dir = ioRead
	case "SetWriteDeadline":
		dir = ioWrite
	default:
		return 0, nil, false
	}
	return dir, sel.X, isZeroTime(info, call.Args[0])
}

// isZeroTime reports whether e is the literal time.Time{} zero value.
func isZeroTime(info *types.Info, e ast.Expr) bool {
	lit, ok := unparen(e).(*ast.CompositeLit)
	if !ok || len(lit.Elts) != 0 {
		return false
	}
	tv, ok := info.Types[lit]
	if !ok || tv.Type == nil {
		return false
	}
	named, ok := tv.Type.(*types.Named)
	return ok && named.Obj().Name() == "Time" &&
		named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "time"
}

// ---------------------------------------------------------------------------
// The must-guard analysis
// ---------------------------------------------------------------------------

// guardWalker is the per-function state shared across forks: alias
// resolution for the guard sets.
type guardWalker struct {
	p       *Pass
	info    *types.Info
	aliases map[types.Object]types.Object // bufio wrapper → wrapped conn
}

// guardEnv is the flow state: the set of canonical roots with a read /
// write deadline established on every path reaching this point.
type guardEnv struct {
	w      *guardWalker
	rd, wr map[types.Object]bool
}

func (e *guardEnv) fork() flowState {
	cp := &guardEnv{w: e.w,
		rd: make(map[types.Object]bool, len(e.rd)),
		wr: make(map[types.Object]bool, len(e.wr))}
	for k := range e.rd {
		cp.rd[k] = true
	}
	for k := range e.wr {
		cp.wr[k] = true
	}
	return cp
}

// merge intersects: a guard must hold on both paths to survive.
func (e *guardEnv) merge(other flowState) {
	o := other.(*guardEnv)
	for k := range e.rd {
		if !o.rd[k] {
			delete(e.rd, k)
		}
	}
	for k := range e.wr {
		if !o.wr[k] {
			delete(e.wr, k)
		}
	}
}

func (e *guardEnv) leaf(st ast.Stmt) {
	switch s := st.(type) {
	case *ast.DeferStmt:
		// Deferred calls run under the guards in force at return, which
		// this forward pass cannot know; conn.Close() et al. are the
		// common case and never block on a deadline.
		return
	case *ast.RangeStmt:
		e.scan(s.X) // header only; the driver runs the body
	default:
		e.scan(st)
	}
}

func (e *guardEnv) expr(x ast.Expr) {
	if x != nil {
		e.scan(x)
	}
}

func (e *guardEnv) scan(nd ast.Node) {
	walkShallow(nd, func(x ast.Node) bool {
		if call, ok := x.(*ast.CallExpr); ok {
			e.call(call)
		}
		return true
	})
}

func (e *guardEnv) call(call *ast.CallExpr) {
	info := e.w.info

	// Deadline setters update the guard sets and are not themselves
	// blocking operations.
	if dir, target, clearing := deadlineSetter(info, call); dir != 0 {
		if obj := e.w.canonicalRoot(target); obj != nil {
			update := func(set map[types.Object]bool) {
				if clearing {
					delete(set, obj)
				} else {
					set[obj] = true
				}
			}
			if dir&ioRead != 0 {
				update(e.rd)
			}
			if dir&ioWrite != 0 {
				update(e.wr)
			}
		}
		return
	}

	// Inherently unbounded operations.
	if path, name, ok := pkgFuncOf(info, call.Fun); ok && path == "net" && name == "Dial" {
		e.w.p.Reportf(call.Pos(), "net.Dial has no bound; use net.DialTimeout or a net.Dialer with Timeout")
		return
	}
	if desc, ok := commRecvTarget(info, call); ok {
		e.w.p.Reportf(call.Pos(),
			"blocking %s receive has no deadline; bound it or justify the shutdown path with //lint:ignore", desc)
		return
	}

	// Raw I/O and module-callee I/O against the guard sets.
	ioOperands(info, call, e.w.p.Mod.calleesOf(info, call.Fun), e.checkIO)
}

// checkIO reports connection I/O whose direction lacks a must-guard.
func (e *guardEnv) checkIO(arg ast.Expr, k ioKind, via string) {
	obj := e.w.canonicalRoot(arg)
	if obj == nil || !connishObj(obj) {
		return
	}
	if k&ioRead != 0 && !e.rd[obj] {
		e.w.p.Reportf(arg.Pos(), "network read on %s without a read deadline on this path; call SetReadDeadline first%s",
			exprString(arg), via)
	}
	if k&ioWrite != 0 && !e.wr[obj] {
		e.w.p.Reportf(arg.Pos(), "network write on %s without a write deadline on this path; call SetWriteDeadline first%s",
			exprString(arg), via)
	}
}

// canonicalRoot resolves an operand to the object deadlines apply to:
// the root identifier, followed through bufio aliases.
func (w *guardWalker) canonicalRoot(e ast.Expr) types.Object {
	obj := exprRootObj(w.info, e)
	for i := 0; obj != nil && i < 10; i++ {
		next, ok := w.aliases[obj]
		if !ok {
			break
		}
		obj = next
	}
	return obj
}

// connishObj reports whether obj is connection-like: its type is
// net.Conn, or a struct carrying a net.Conn field (the peer pattern).
func connishObj(obj types.Object) bool {
	t := obj.Type()
	if t == nil {
		return false
	}
	if isNetConnType(t) {
		return true
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if isNetConnType(st.Field(i).Type()) {
			return true
		}
	}
	return false
}

// isNetConnType reports whether t is (a pointer to) net.Conn.
func isNetConnType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Conn" && obj.Pkg() != nil && obj.Pkg().Path() == "net"
}

// commRecvTarget matches blocking comm-layer receives: Get/Recv methods
// on types declared under internal/ug/comm (Mailbox, Comm impls).
func commRecvTarget(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	name := sel.Sel.Name
	if name != "Get" && name != "Recv" {
		return "", false
	}
	s, ok := info.Selections[sel]
	if !ok {
		return "", false
	}
	t := s.Recv()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", false
	}
	if !strings.Contains(named.Obj().Pkg().Path()+"/", "internal/ug/comm/") {
		return "", false
	}
	return named.Obj().Name() + "." + name, true
}

// collectAliases records bufio wrapper construction (`br :=
// bufio.NewReader(conn)`), flow-insensitively, so deadlines set on the
// conn guard reads through the wrapper.
func collectAliases(info *types.Info, body *ast.BlockStmt) map[types.Object]types.Object {
	aliases := map[types.Object]types.Object{}
	walkShallow(body, func(nd ast.Node) bool {
		as, ok := nd.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		lhs, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		call, ok := unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		path, name, ok := pkgFuncOf(info, call.Fun)
		if !ok || path != "bufio" {
			return true
		}
		switch name {
		case "NewReader", "NewReaderSize", "NewWriter", "NewWriterSize", "NewReadWriter":
		default:
			return true
		}
		src := rootIdent(call.Args[0])
		if src == nil {
			return true
		}
		srcObj := info.Uses[src]
		if srcObj == nil {
			srcObj = info.Defs[src]
		}
		lhsObj := info.Defs[lhs]
		if lhsObj == nil {
			lhsObj = info.Uses[lhs]
		}
		if srcObj != nil && lhsObj != nil {
			aliases[lhsObj] = srcObj
		}
		return true
	})
	return aliases
}

func runCtxDeadline(p *Pass) {
	for _, n := range p.Mod.Funcs() {
		if n.Pkg.PkgPath != p.PkgPath || n.body() == nil {
			continue
		}
		w := &guardWalker{p: p, info: n.Pkg.Info, aliases: collectAliases(n.Pkg.Info, n.body())}
		env := &guardEnv{w: w, rd: map[types.Object]bool{}, wr: map[types.Object]bool{}}
		flowStmts(n.body().List, env)
	}
}
