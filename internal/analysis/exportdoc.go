package analysis

import (
	"go/ast"
	"strings"
)

// exportDocPackages lists the package-path suffixes whose exported API
// must be documented: the plugin/glue surface a solver author programs
// against (the paper's ScipUserPlugins analogue).
var exportDocPackages = []string{
	"/internal/scip",
	"/internal/ug",
	"/internal/ug/comm",
	"/internal/ug/comm/net",
	"/internal/core",
}

// ExportDoc flags exported declarations without doc comments in the
// plugin-facing packages. Those interfaces are the product: the paper's
// claim is that a solver author writes <200 lines against them, which
// presumes each hook documents its contract (when it is called, what it
// may mutate, what a nil return means).
var ExportDoc = &Analyzer{
	Name: "exportdoc",
	Doc:  "undocumented exported API in plugin-facing packages",
	Applies: func(pkgPath string) bool {
		for _, suffix := range exportDocPackages {
			if strings.HasSuffix(pkgPath, suffix) {
				return true
			}
		}
		return false
	},
	Run: runExportDoc,
}

// recvExported reports whether a function is part of the exported API:
// free functions always are; methods only when their receiver base type
// is itself exported (a method named Len on an unexported heap type is
// package-private no matter its casing).
func recvExported(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return true
		}
	}
}

func runExportDoc(p *Pass) {
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() && d.Doc == nil && recvExported(d) {
					kind := "function"
					if d.Recv != nil {
						kind = "method"
					}
					p.Reportf(d.Pos(), "exported %s %s has no doc comment", kind, d.Name.Name)
				}
			case *ast.GenDecl:
				checkGenDecl(p, d)
			}
		}
	}
}

// checkGenDecl enforces docs on exported specs. A doc comment on the
// grouped declaration (`// Protocol tags.` above a const block) covers
// every spec inside it; otherwise each exported spec needs its own doc
// or trailing comment. Struct fields are left to review: the struct's
// own doc is required, per-field enforcement would drown signal.
func checkGenDecl(p *Pass, d *ast.GenDecl) {
	blockDoc := d.Doc != nil
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && !blockDoc && s.Doc == nil && s.Comment == nil {
				p.Reportf(s.Pos(), "exported type %s has no doc comment", s.Name.Name)
			}
			if it, ok := s.Type.(*ast.InterfaceType); ok && s.Name.IsExported() {
				checkInterface(p, s.Name.Name, it)
			}
		case *ast.ValueSpec:
			if blockDoc || s.Doc != nil || s.Comment != nil {
				continue
			}
			for _, name := range s.Names {
				if name.IsExported() {
					p.Reportf(name.Pos(), "exported %s %s has no doc comment", kindOf(d), name.Name)
				}
			}
		}
	}
}

func kindOf(d *ast.GenDecl) string {
	switch d.Tok.String() {
	case "const":
		return "constant"
	case "var":
		return "variable"
	}
	return d.Tok.String()
}

// checkInterface requires a doc comment on every exported method of an
// exported interface — these are the plugin hooks.
func checkInterface(p *Pass, typeName string, it *ast.InterfaceType) {
	for _, m := range it.Methods.List {
		if len(m.Names) == 0 {
			continue // embedded interface
		}
		for _, name := range m.Names {
			if name.IsExported() && m.Doc == nil && m.Comment == nil {
				p.Reportf(name.Pos(), "exported interface method %s.%s has no doc comment", typeName, name.Name)
			}
		}
	}
}
