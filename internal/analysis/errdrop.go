package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// ErrDrop flags call statements inside internal/ packages that silently
// discard a returned error. In a solver, a swallowed error usually
// surfaces later as a wrong bound or a truncated checkpoint — far from
// its cause. Escape hatches, in order of preference: handle the error;
// assign it explicitly (`_ = f.Close()`) to mark an audited discard; or
// annotate with //lint:ignore errdrop <reason>. Deferred calls and
// methods that are documented never to fail ((*bytes.Buffer),
// (*strings.Builder), hash.Hash writes) are exempt.
var ErrDrop = &Analyzer{
	Name:    "errdrop",
	Doc:     "call discards an error result inside internal/ packages",
	Applies: isInternal,
	Run:     runErrDrop,
}

func runErrDrop(p *Pass) {
	inspect(p, func(n ast.Node) bool {
		st, ok := n.(*ast.ExprStmt)
		if !ok {
			return true
		}
		call, ok := st.X.(*ast.CallExpr)
		if !ok {
			return true
		}
		if !callReturnsError(p, call) || neverFails(p, call) {
			return true
		}
		p.Reportf(call.Pos(), "%s returns an error that is discarded; handle it or assign to _ explicitly", callName(call))
		return true
	})
}

// callReturnsError reports whether the call's result is or includes an
// error.
func callReturnsError(p *Pass, call *ast.CallExpr) bool {
	tv, ok := p.Info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return isErrorType(t)
	}
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "error" && obj.Pkg() == nil
}

// fprintFuncs are the writer-parameterized fmt printers.
var fprintFuncs = map[string]bool{"Fprint": true, "Fprintln": true, "Fprintf": true}

// neverFails exempts calls whose dropped error carries no information:
// methods on in-memory writers that are documented to always return nil,
// and fmt.Fprint* — writer-parameterized formatting where the error is
// the writer's (tabwriter/bufio surface it at Flush, and in-memory
// writers never fail).
func neverFails(p *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if s, ok := p.Info.Selections[sel]; ok {
		recv := s.Recv().String()
		switch {
		case strings.HasSuffix(recv, "bytes.Buffer"),
			strings.HasSuffix(recv, "strings.Builder"),
			strings.HasSuffix(recv, "hash.Hash"):
			return true
		}
		return false
	}
	path, name, _ := pkgFuncOf(p.Info, sel)
	return path == "fmt" && fprintFuncs[name]
}

func callName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return exprString(f)
	}
	return "call"
}
