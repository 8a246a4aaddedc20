// Package analysis is aptlint's static-analysis framework: a
// self-contained reimplementation of the narrow slice of
// golang.org/x/tools/go/analysis that the repo's analyzers need
// (Analyzer, Pass, diagnostics), built only on the standard library's
// go/ast, go/parser, go/token and go/types.
//
// Why not depend on x/tools directly: the reproduction builds in a
// hermetic, network-free environment with an empty module cache, so the
// module must remain dependency-free. The types here mirror the
// x/tools API shape one-for-one (an Analyzer has Name/Doc/Run, a Pass
// carries Fset/Files/Pkg/TypesInfo and a Report entry point), so
// migrating an analyzer to the real framework — and to `go vet
// -vettool` via unitchecker — is a mechanical import swap, not a
// rewrite. See DESIGN.md decision 14.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer is one static check. It reports findings through the
// Pass; it must not depend on analyzer execution order or retain the
// Pass after Run returns.
type Analyzer struct {
	// Name identifies the analyzer in output and in //apt:allow
	// suppression directives. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description: the invariant the analyzer
	// protects and what a finding means.
	Doc string
	// Run executes the check over one package.
	Run func(*Pass) error
}

// A Pass provides one analyzer with one type-checked package and a sink
// for diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	PkgPath   string
	Dir       string // package directory on disk (for _test.go inspection)
	Pkg       *types.Package
	TypesInfo *types.Info

	// Graph is the module-wide call graph, shared by every pass of a
	// driver run — the interprocedural layer (see callgraph.go). Nil
	// only when a test constructs a Pass by hand.
	Graph *CallGraph

	report func(Diagnostic)
}

// A Diagnostic is a single finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf emits a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// TypeOf returns the type of e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.TypesInfo.TypeOf(e) }

// ObjectOf returns the object denoted by id, consulting Uses then Defs.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if o := p.TypesInfo.Uses[id]; o != nil {
		return o
	}
	return p.TypesInfo.Defs[id]
}

// CalleeFunc resolves a call expression to the *types.Func it invokes
// (package-level functions and methods; nil for builtins, conversions,
// and calls through function-typed variables).
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// IsBuiltinCall reports whether call invokes the named builtin
// (e.g. "make", "new", "append").
func IsBuiltinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}
