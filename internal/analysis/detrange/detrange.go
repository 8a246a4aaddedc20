// Package detrange flags map iteration whose loop body is sensitive to
// iteration order.
//
// Go randomizes map iteration order per run. The reproduction's
// correctness story leans on two properties that such loops silently
// break: bit-identical logits across strategies (float addition does
// not associate, so accumulating map values in random order changes the
// result bits) and golden traces (sends and appends in map order
// shuffle span sequences). The analyzer flags a `range m` over a
// map when the body
//
//   - compound-assigns (+= -= *= /=) into a float or complex lvalue
//     that does not mention the loop key (per-key slots like sum[k] +=
//     v are order-independent),
//   - sends on any channel, or
//   - appends to a slice — except the idiomatic fix itself: appending
//     the bare key into a slice that is passed to a sort/slices call
//     later in the same scope.
package detrange

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "detrange",
	Doc:  "flag order-sensitive work inside map iteration",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		sorted := sortedSlices(pass, f)
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypeOf(rng.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			checkBody(pass, rng, sorted)
			return true
		})
	}
	return nil
}

// checkBody walks one map-range body for order-sensitive operations.
func checkBody(pass *analysis.Pass, rng *ast.RangeStmt, sorted map[types.Object][]token.Pos) {
	keyObj := rangeVarObj(pass, rng.Key)
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(n.Arrow,
				"channel send inside map iteration: message order depends on map iteration order")
		case *ast.AssignStmt:
			switch n.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			default:
				return true
			}
			lhs := n.Lhs[0]
			if !isFloatish(pass.TypeOf(lhs)) {
				return true
			}
			if keyObj != nil && mentions(pass, lhs, keyObj) {
				return true // per-key slot: each key visited once, order-free
			}
			pass.Reportf(n.TokPos,
				"float accumulation inside map iteration: addition order follows map order and changes result bits")
		case *ast.CallExpr:
			if !analysis.IsBuiltinCall(pass.TypesInfo, n, "append") {
				return true
			}
			if isSortedKeyCollect(pass, n, rng, keyObj, sorted) {
				return true
			}
			pass.Reportf(n.Pos(),
				"append inside map iteration: element order depends on map iteration order (collect keys and sort, or use //apt:allow detrange <reason>)")
		}
		return true
	})
}

// isFloatish reports whether t is a floating-point or complex type —
// the types whose addition does not associate.
func isFloatish(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}

// rangeVarObj resolves a range clause variable to its object.
func rangeVarObj(pass *analysis.Pass, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	return pass.ObjectOf(id)
}

// mentions reports whether expr references obj anywhere.
func mentions(pass *analysis.Pass, expr ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}

// isSortedKeyCollect recognizes `keys = append(keys, k)` where k is the
// range key and keys later flows into a sort/slices call after the
// loop — the canonical deterministic-iteration idiom, which must not be
// flagged or the fix would need a suppression.
func isSortedKeyCollect(pass *analysis.Pass, call *ast.CallExpr, rng *ast.RangeStmt, keyObj types.Object, sorted map[types.Object][]token.Pos) bool {
	if keyObj == nil || len(call.Args) != 2 {
		return false
	}
	arg, ok := ast.Unparen(call.Args[1]).(*ast.Ident)
	if !ok || pass.ObjectOf(arg) != keyObj {
		return false
	}
	dst, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return false
	}
	dstObj := pass.ObjectOf(dst)
	for _, pos := range sorted[dstObj] {
		if pos > rng.End() {
			return true
		}
	}
	return false
}

// sortedSlices maps slice objects to the positions of sort/slices calls
// they are passed to, across the whole file. Variable objects are
// scope-local, so collecting file-wide cannot cross functions.
func sortedSlices(pass *analysis.Pass, f *ast.File) map[types.Object][]token.Pos {
	out := map[types.Object][]token.Pos{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.CalleeFunc(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, a := range call.Args {
			if id, ok := ast.Unparen(a).(*ast.Ident); ok {
				if obj := pass.ObjectOf(id); obj != nil {
					out[obj] = append(out[obj], call.Pos())
				}
			}
		}
		return true
	})
	return out
}
