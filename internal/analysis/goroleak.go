package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// GoroLeak flags goroutine launches whose body (or a function it calls,
// up to a small depth) loops forever over blocking operations with no
// reachable termination path: no return or escaping break inside the
// loop, and nothing in the loop that names a termination signal (a
// done/quit/stop/cancel channel, a context, a closed flag). In the UG
// layer every ParaSolver goroutine must unwind when the LoadCoordinator
// broadcasts termination — a leaked worker keeps the run alive and, in
// a distributed (comm/net) run, wedges rank teardown.
//
// The check is deliberately evidence-based rather than a reachability
// proof: a loop that listens on anything termination-named, or that can
// return/break, is trusted. Range-over-channel loops terminate via
// close() and are never reported on their own.
var GoroLeak = &Analyzer{
	Name:    "goroleak",
	Doc:     "goroutine with an unbounded blocking loop and no termination path (no done/ctx signal, return, or break)",
	Applies: isInternal,
	Run:     runGoroLeak,
}

func runGoroLeak(p *Pass) {
	if p.Mod == nil {
		return
	}
	inspect(p, func(n ast.Node) bool {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		for _, t := range spawnTargets(p, gs) {
			if pos, leaking := leakyLoop(p.Mod, t, map[*FuncNode]bool{}, 0); leaking {
				p.Reportf(gs.Pos(), "goroutine %s loops forever on blocking operations with no termination path (loop at line %d: no done/ctx signal, return, or break); thread a done channel or context",
					t.Name(), p.Fset.Position(pos).Line)
			}
		}
		return true
	})
}

// spawnTargets resolves the module-local functions a go statement may
// start: the literal itself, or every callee of the spawned expression
// (interface dispatch fans out).
func spawnTargets(p *Pass, gs *ast.GoStmt) []*FuncNode {
	if lit, ok := unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		if n := p.Mod.byLit[lit]; n != nil {
			return []*FuncNode{n}
		}
		return nil
	}
	return p.Mod.calleesOf(p.Info, gs.Call.Fun)
}

// leakyLoop reports whether n (or a synchronous callee within depth 3)
// contains an infinite blocking loop with no termination evidence.
func leakyLoop(m *Module, n *FuncNode, visited map[*FuncNode]bool, depth int) (token.Pos, bool) {
	if n == nil || visited[n] || depth > 3 || n.body() == nil {
		return token.NoPos, false
	}
	visited[n] = true
	var leakPos token.Pos
	walkShallow(n.body(), func(nd ast.Node) bool {
		if leakPos != token.NoPos {
			return false
		}
		loop, ok := nd.(*ast.ForStmt)
		if !ok || loop.Cond != nil {
			return true
		}
		f := gatherLoopFacts(m, n.Pkg.Info, loop)
		if f.blocks && !f.escapes && !f.termination {
			leakPos = loop.Pos()
			return false
		}
		return true
	})
	if leakPos != token.NoPos {
		return leakPos, true
	}
	for _, c := range n.Callees() {
		if pos, ok := leakyLoop(m, c, visited, depth+1); ok {
			return pos, true
		}
	}
	return token.NoPos, false
}

// loopFacts summarizes one infinite loop: does it block, can control
// leave it, and does anything in it name a termination signal.
type loopFacts struct {
	blocks      bool
	escapes     bool
	termination bool
}

// termWords are name fragments accepted as evidence of a termination
// path (matched case-insensitively against identifiers in the loop).
var termWords = []string{"done", "quit", "stop", "cancel", "shutdown", "close", "term", "exit", "ctx", "kill"}

func isTermName(name string) bool {
	lower := strings.ToLower(name)
	for _, w := range termWords {
		if strings.Contains(lower, w) {
			return true
		}
	}
	return false
}

func gatherLoopFacts(m *Module, info *types.Info, loop *ast.ForStmt) loopFacts {
	var f loopFacts
	f.escapes = stmtsEscape(loop.Body.List, true)
	// Comm statements of a select that has a default case never block;
	// exclude them from the blocking scan.
	nonBlocking := map[ast.Node]bool{}
	walkShallow(loop.Body, func(nd ast.Node) bool {
		if sel, ok := nd.(*ast.SelectStmt); ok && selectHasDefault(sel) {
			for _, c := range sel.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
					nonBlocking[cc.Comm] = true
				}
			}
		}
		return true
	})
	walkShallow(loop.Body, func(nd ast.Node) bool {
		if nonBlocking[nd] {
			return false
		}
		switch x := nd.(type) {
		case *ast.Ident:
			if isTermName(x.Name) {
				f.termination = true
			}
		case *ast.SendStmt:
			f.blocks = true
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				f.blocks = true
			}
		case *ast.SelectStmt:
			if !selectHasDefault(x) {
				f.blocks = true
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[x.X]; ok && tv.Type != nil {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					// Range over a channel ends when the channel is closed:
					// blocking, but with a built-in termination path.
					f.blocks = true
					f.termination = true
				}
			}
		case *ast.CallExpr:
			if callMayBlock(m, info, x) {
				f.blocks = true
			}
		}
		return true
	})
	return f
}

// callMayBlock classifies one call inside the loop: sync Wait methods,
// the blocking stdlib table, or a module callee whose summary blocks.
func callMayBlock(m *Module, info *types.Info, call *ast.CallExpr) bool {
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := info.Selections[sel]; ok {
			if fn, ok := s.Obj().(*types.Func); ok && fn.Pkg() != nil &&
				fn.Pkg().Path() == "sync" && fn.Name() == "Wait" {
				return true
			}
		} else if id, ok := sel.X.(*ast.Ident); ok {
			if pn, ok := info.Uses[id].(*types.PkgName); ok {
				if fns := blockingCalls[pn.Imported().Path()]; fns != nil && fns[sel.Sel.Name] {
					return true
				}
			}
		}
	}
	for _, c := range m.calleesOf(info, call.Fun) {
		if c.Summary().MayBlock {
			return true
		}
	}
	return false
}

// stmtsEscape reports whether control can leave the loop from this
// statement list: a return, panic, goto, labeled break, or (when
// breakEscapes) an unlabeled break. Nested loops/switches/selects
// capture unlabeled breaks.
func stmtsEscape(list []ast.Stmt, breakEscapes bool) bool {
	for _, st := range list {
		if stmtEscapes(st, breakEscapes) {
			return true
		}
	}
	return false
}

func stmtEscapes(st ast.Stmt, breakEscapes bool) bool {
	switch s := st.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		if s.Tok == token.GOTO {
			return true // out of scope for this approximation: trust it
		}
		return s.Tok == token.BREAK && (breakEscapes || s.Label != nil)
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		return stmtsEscape(s.List, breakEscapes)
	case *ast.IfStmt:
		if stmtsEscape(s.Body.List, breakEscapes) {
			return true
		}
		if s.Else != nil {
			return stmtEscapes(s.Else, breakEscapes)
		}
	case *ast.ForStmt:
		return stmtsEscape(s.Body.List, false)
	case *ast.RangeStmt:
		return stmtsEscape(s.Body.List, false)
	case *ast.SwitchStmt:
		return clausesEscape(s.Body.List)
	case *ast.TypeSwitchStmt:
		return clausesEscape(s.Body.List)
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && stmtsEscape(cc.Body, false) {
				return true
			}
		}
	case *ast.LabeledStmt:
		return stmtEscapes(s.Stmt, breakEscapes)
	}
	return false
}

func clausesEscape(list []ast.Stmt) bool {
	for _, c := range list {
		if cc, ok := c.(*ast.CaseClause); ok && stmtsEscape(cc.Body, false) {
			return true
		}
	}
	return false
}
