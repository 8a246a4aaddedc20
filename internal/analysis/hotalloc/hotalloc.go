// Package hotalloc makes the "0 allocs/op" kernel guarantee a
// compile-time property.
//
// The pipelined engine only overlaps sampling and compute profitably
// because the fused kernels (PR 4) allocate nothing in steady state —
// today that is guarded by `make verify`'s -benchmem gate, which only
// sees the shapes the benchmarks happen to exercise. hotalloc checks it
// structurally: a function whose doc comment carries //apt:hotpath must
// not contain make, new, slice/map composite literals, address-taken
// composite literals, append, closures, or go statements — each of
// those either allocates or (closures, go) defeats escape analysis for
// what it captures. Scratch space in a hot path comes from the tensor
// pool (tensor.Get/Put), which the analyzer deliberately does not flag.
//
// One-time or fan-out paths inside a marked function (e.g. the closure
// a parallel dispatcher hands its workers) are excused with
// //apt:allow hotalloc <reason>.
package hotalloc

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "forbid allocations in //apt:hotpath functions",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !analysis.IsHotpath(fn) {
				continue
			}
			checkFunc(pass, fn)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			switch {
			case analysis.IsBuiltinCall(pass.TypesInfo, n, "make"):
				pass.Reportf(n.Pos(), "make in hot path: %s allocates per call", typeLabel(pass, n))
			case analysis.IsBuiltinCall(pass.TypesInfo, n, "new"):
				pass.Reportf(n.Pos(), "new in hot path: %s allocates per call", typeLabel(pass, n))
			case analysis.IsBuiltinCall(pass.TypesInfo, n, "append"):
				pass.Reportf(n.Pos(), "append in hot path: growth allocates; write into preallocated storage")
			}
		case *ast.CompositeLit:
			t := pass.TypeOf(n)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Slice, *types.Map:
				pass.Reportf(n.Pos(), "%s literal in hot path allocates per call", kindWord(t))
			}
		case *ast.UnaryExpr:
			if n.Op.String() == "&" {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(), "address-taken composite literal in hot path escapes to the heap")
				}
			}
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "closure in hot path: the closure and its captures may escape; hoist it or pass a named function")
			return false // findings inside the closure belong to its own audit
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "go statement in hot path allocates a goroutine per call")
			return false // one finding per go statement; its closure is implied
		}
		return true
	})
}

func typeLabel(pass *analysis.Pass, call *ast.CallExpr) string {
	if len(call.Args) == 0 {
		return "value"
	}
	if t := pass.TypeOf(call.Args[0]); t != nil {
		return t.String()
	}
	return "value"
}

func kindWord(t types.Type) string {
	if _, ok := t.Underlying().(*types.Map); ok {
		return "map"
	}
	return "slice"
}
