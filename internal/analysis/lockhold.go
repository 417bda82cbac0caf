package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockHold flags operations that can block indefinitely while a
// sync.Mutex/RWMutex may be held. In the ug/comm mailbox and the
// coordinator's solution pool, blocking inside a critical section turns
// a microsecond lock into a convoy, or a deadlock when the peer needs
// the same lock. The analyzer runs on the flow driver (dataflow.go) with
// a may-held lattice, so one walk sees a hold taken on every path and a
// hold taken on only some (a conditional Lock, a TryLock) alike, and
// reports, wherever a mutex may be held:
//
//   - a channel send or receive outside a select-with-default (those
//     poll, they do not park the goroutine);
//   - a known-blocking stdlib call (blockingCalls: time.Sleep, file and
//     network I/O, console output);
//   - a call into a module function whose summary says it may block
//     (possibly several calls deep), or that may re-acquire a mutex
//     already held: a self-deadlock on a non-reentrant Go mutex;
//   - a network write, raw or through a module callee (the writesParam
//     summary below): remote backpressure extends the critical section.
//
// Independently of any hold, sync.Cond.Wait outside a for/range loop is
// reported: spurious and stolen wakeups are allowed by the memory model,
// so the predicate must be re-checked. Cond.Wait is never a blocking
// finding itself, because it releases the lock while parked (the mailbox
// pattern in internal/ug/comm). Deferred calls run at return and `go`
// statements on another goroutine, so neither is scanned; a function
// literal is walked as its own function, holding nothing.
var LockHold = &Analyzer{
	Name:    "lockhold",
	Doc:     "blocking operation (channel op, blocking call, network write, mutex re-acquire) while a mutex may be held; Cond.Wait outside a loop",
	Applies: isInternal,
	Run:     runLockHold,
}

// blockingCalls maps package path → function names that may block.
var blockingCalls = map[string]map[string]bool{
	"time": {"Sleep": true},
	"os": {"Open": true, "Create": true, "ReadFile": true, "WriteFile": true,
		"Remove": true, "Rename": true, "OpenFile": true, "ReadDir": true},
	"fmt": {"Print": true, "Println": true, "Printf": true,
		"Scan": true, "Scanln": true, "Scanf": true},
	"net":      {"Dial": true, "Listen": true, "DialTimeout": true},
	"net/http": {"Get": true, "Post": true, "Head": true, "PostForm": true},
}

// lockWalker is the per-function state shared by every fork of heldEnv.
type lockWalker struct {
	p           *Pass
	info        *types.Info
	nonBlocking map[token.Pos]bool // comm ops inside select-with-default
	loops       int                // loop depth, for the Cond.Wait rule
}

// heldEnv is the flow state: the mutexes that may be held here. The
// value records whether the hold is conditional (acquired on only some
// paths into this point).
type heldEnv struct {
	w    *lockWalker
	held map[types.Object]bool
}

func (e *heldEnv) fork() flowState {
	cp := &heldEnv{w: e.w, held: make(map[types.Object]bool, len(e.held))}
	for k, v := range e.held {
		cp.held[k] = v
	}
	return cp
}

// merge unions may-held facts: a mutex held on only one incoming path
// becomes conditionally held.
func (e *heldEnv) merge(other flowState) {
	o := other.(*heldEnv)
	for k, cond := range o.held {
		mine, ok := e.held[k]
		e.held[k] = !ok || mine || cond
	}
	for k := range e.held {
		if _, ok := o.held[k]; !ok {
			e.held[k] = true
		}
	}
}

func (e *heldEnv) enterLoop(ast.Stmt) { e.w.loops++ }
func (e *heldEnv) exitLoop()          { e.w.loops-- }

func (e *heldEnv) leaf(st ast.Stmt) {
	switch s := st.(type) {
	case *ast.DeferStmt, *ast.GoStmt:
		// A deferred Unlock releases at return, not here; a new
		// goroutine does not hold this one's locks.
	case *ast.RangeStmt:
		e.scan(s.X)
	default:
		e.scan(st)
	}
}

func (e *heldEnv) expr(x ast.Expr) {
	if x != nil {
		e.scan(x)
	}
}

func (e *heldEnv) scan(nd ast.Node) {
	walkShallow(nd, func(x ast.Node) bool {
		switch v := x.(type) {
		case *ast.CallExpr:
			e.call(v)
		case *ast.UnaryExpr:
			if v.Op == token.ARROW {
				e.commOp(v.Pos(), "receive")
			}
		case *ast.SendStmt:
			e.commOp(v.Pos(), "send")
		}
		return true
	})
}

// call applies a lock operation to the held set, checks the Cond.Wait
// rule, and reports blocking calls and network writes made while
// anything may be held.
func (e *heldEnv) call(call *ast.CallExpr) {
	info := e.w.info
	if obj, op, ok := syncLockOp(info, call); ok {
		if obj != nil {
			switch op {
			case "Lock", "RLock":
				e.held[obj] = false
			case "TryLock", "TryRLock":
				e.held[obj] = true // acquired only when it succeeds
			case "Unlock", "RUnlock":
				delete(e.held, obj)
			}
		}
		return
	}
	if isCondWait(info, call) {
		if e.w.loops == 0 {
			e.w.p.Reportf(call.Pos(), "sync.Cond.Wait outside a for loop: spurious wakeups require re-checking the predicate in a loop")
		}
		return
	}
	if len(e.held) == 0 {
		return
	}
	if path, name, ok := pkgFuncOf(info, call.Fun); ok && blockingCalls[path][name] {
		e.w.p.Reportf(call.Pos(), "%s.%s while %s can block the critical section", path, name, e.holding())
	}
	callees := e.w.p.Mod.calleesOf(info, call.Fun)
	for _, c := range callees {
		if c.sum.MayBlock {
			e.w.p.Reportf(call.Pos(), "call to %s may block (channel/select/Wait/I-O in its call chain) while %s", c.Name(), e.holding())
		}
		for _, mu := range e.heldSorted() {
			if c.sum.Acquires[mu] {
				e.w.p.Reportf(call.Pos(), "call to %s may re-acquire %q, which is already held: self-deadlock on a non-reentrant mutex", c.Name(), mu.Name())
			}
		}
	}
	writeOperands(info, call, callees, func(arg ast.Expr, via string) {
		if obj := exprRootObj(info, arg); obj != nil && connishObj(obj) {
			e.w.p.Reportf(arg.Pos(), "network write on %s while %s%s; remote backpressure extends the critical section",
				exprString(arg), e.holding(), via)
		}
	})
}

// commOp reports a channel operation that can park the goroutine while a
// mutex may be held.
func (e *heldEnv) commOp(pos token.Pos, what string) {
	if len(e.held) > 0 && !e.w.nonBlocking[pos] {
		e.w.p.Reportf(pos, "channel %s while %s can block the critical section", what, e.holding())
	}
}

// heldSorted returns the held mutexes in stable (name) order so finding
// order is deterministic.
func (e *heldEnv) heldSorted() []types.Object {
	out := make([]types.Object, 0, len(e.held))
	for mu := range e.held {
		out = append(out, mu)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// holding names the held mutexes for a finding, marking the ones held
// on only some paths into this point.
func (e *heldEnv) holding() string {
	var parts []string
	for _, mu := range e.heldSorted() {
		s := fmt.Sprintf("%q", mu.Name())
		if e.held[mu] {
			s += " (on some paths)"
		}
		parts = append(parts, s)
	}
	return "holding mutex " + strings.Join(parts, ", ")
}

// syncLockOp matches mu.Lock()-style calls on sync primitives and
// returns the mutex identity and operation name.
func syncLockOp(info *types.Info, call *ast.CallExpr) (types.Object, string, bool) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, "", false
	}
	s, ok := info.Selections[sel]
	if !ok {
		return nil, "", false
	}
	fn, ok := s.Obj().(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "TryLock", "TryRLock", "Unlock", "RUnlock":
		return mutexIdentity(info, sel.X), sel.Sel.Name, true
	}
	return nil, "", false
}

// isCondWait matches cond.Wait() on a sync.Cond (sync.WaitGroup.Wait has
// no re-check contract).
func isCondWait(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Wait" {
		return false
	}
	s, ok := info.Selections[sel]
	return ok && isNamedIn(s.Recv(), "Cond", "sync")
}

// nonBlockingComms marks the comm operations of every
// select-with-default in body: those poll rather than block.
func nonBlockingComms(body *ast.BlockStmt) map[token.Pos]bool {
	out := map[token.Pos]bool{}
	walkShallow(body, func(nd ast.Node) bool {
		sel, ok := nd.(*ast.SelectStmt)
		if !ok || !selectHasDefault(sel) {
			return true
		}
		for _, c := range sel.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok || cc.Comm == nil {
				continue
			}
			ast.Inspect(cc.Comm, func(x ast.Node) bool {
				switch v := x.(type) {
				case *ast.SendStmt:
					out[v.Pos()] = true
				case *ast.UnaryExpr:
					if v.Op == token.ARROW {
						out[v.Pos()] = true
					}
				}
				return true
			})
		}
		return true
	})
	return out
}

// writeMethodNames are the stdlib method names that block on the wire
// when the receiver wraps a connection.
var writeMethodNames = map[string]bool{
	"Write": true, "WriteByte": true, "WriteString": true, "WriteRune": true,
	"Flush": true,
}

// rawWriteTargets returns the operands a non-module call writes to
// directly. Module calls are resolved through writesParam summaries
// instead and must not reach here.
func rawWriteTargets(info *types.Info, call *ast.CallExpr) []ast.Expr {
	if path, name, ok := pkgFuncOf(info, call.Fun); ok {
		switch {
		case path == "io" && (name == "WriteString" || name == "Copy" || name == "CopyN"),
			path == "encoding/binary" && name == "Write":
			if len(call.Args) > 0 {
				return call.Args[:1]
			}
		}
		return nil
	}
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !writeMethodNames[sel.Sel.Name] {
		return nil
	}
	if _, isMethod := info.Selections[sel]; !isMethod {
		return nil
	}
	return []ast.Expr{sel.X}
}

// writeOperands calls fn for each operand a call writes to:
// rawWriteTargets for a non-module call, the callees' writesParam
// summaries otherwise. via is "" for a direct write and " (via
// <callee>)" for a write in a callee, ready to append to a finding.
func writeOperands(info *types.Info, call *ast.CallExpr, callees []*FuncNode, fn func(arg ast.Expr, via string)) {
	if len(callees) == 0 {
		for _, e := range rawWriteTargets(info, call) {
			fn(e, "")
		}
		return
	}
	args := alignedArgs(info, call)
	for _, c := range callees {
		for i, w := range c.writesParam {
			if w && i < len(args) {
				fn(args[i], " (via "+shortFuncName(c)+")")
			}
		}
	}
}

// computeWriteParams converges the per-function writesParam summaries
// over the call graph (run from BuildModule). The summary is monotone,
// so a plain sweep-to-fixpoint terminates; it is what lets lockhold see
// `p.write(...)` write on p's connection three calls deep.
func computeWriteParams(m *Module) {
	for _, n := range m.nodes {
		n.writesParam = make([]bool, len(paramList(n)))
	}
	for changed := true; changed; {
		changed = false
		for _, n := range m.nodes {
			if n.body() != nil && scanWriteParams(m, n) {
				changed = true
			}
		}
	}
}

// scanWriteParams marks the parameters n writes to, directly or via
// module callees; it reports whether the summary grew.
func scanWriteParams(m *Module, n *FuncNode) bool {
	info := n.Pkg.Info
	index := map[types.Object]int{}
	for i, obj := range paramList(n) {
		index[obj] = i
	}
	changed := false
	walkShallow(n.body(), func(nd ast.Node) bool {
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		writeOperands(info, call, m.calleesOf(info, call.Fun), func(e ast.Expr, _ string) {
			if i, ok := index[exprRootObj(info, e)]; ok && !n.writesParam[i] {
				n.writesParam[i] = true
				changed = true
			}
		})
		return true
	})
	return changed
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

func runLockHold(p *Pass) {
	for _, n := range p.Mod.Funcs() {
		if n.Pkg.PkgPath != p.PkgPath || n.body() == nil {
			continue
		}
		w := &lockWalker{p: p, info: n.Pkg.Info, nonBlocking: nonBlockingComms(n.body())}
		flowStmts(n.body().List, &heldEnv{w: w, held: map[types.Object]bool{}})
	}
}
