// Package poolpair flags tensor.Get results that can leak out of the
// matrix pool.
//
// The pool-backed kernels are allocation-free only while every borrowed
// buffer makes it back via tensor.Put; a dropped Put silently degrades
// the kernel to allocating-per-call, which the -benchmem gate catches
// late and only on benchmarked shapes. For each function (closures are
// independent scopes), every direct tensor.Get call must either
//
//   - be paired with a tensor.Put of the same variable in that scope,
//   - transfer ownership: the result is returned, sent, stored into a
//     field/element/global, aliased, address-taken, captured by a
//     closure, or consumed directly inside a larger expression (the
//     pool protocol says Put is the borrower's job once a matrix
//     escapes to a new owner), or
//   - carry an //apt:allow poolpair directive explaining why not.
//
// Passing the variable to a call is a borrow, not a transfer: the
// kernels take their operands and scratch as arguments, so counting a
// call as a new owner would excuse almost every deleted Put.
//
// A discarded Get (statement position) is always a leak. A paired but
// non-deferred Put additionally flags return statements between the Get
// and the Put: those paths leak the buffer (and a panic in between
// does too — prefer defer tensor.Put when early returns exist).
package poolpair

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "poolpair",
	Doc:  "pair every tensor.Get with a Put or an ownership transfer",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		// Every function body — declarations and closures — is its own
		// pairing scope.
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				checkScope(pass, fn.Body)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				checkScope(pass, lit.Body)
			}
			return true
		})
	}
	return nil
}

// isPoolFunc matches the pool entry points by name and package. The
// package is matched by path suffix so analyzer testdata can stub it.
func isPoolFunc(info *types.Info, call *ast.CallExpr, name string) bool {
	fn := analysis.CalleeFunc(info, call)
	if fn == nil || fn.Name() != name || fn.Pkg() == nil {
		return false
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return false
	}
	p := fn.Pkg().Path()
	return p == "tensor" || strings.HasSuffix(p, "/tensor")
}

type putSite struct {
	pos      token.Pos
	obj      types.Object
	deferred bool
}

func checkScope(pass *analysis.Pass, body *ast.BlockStmt) {
	parents := parentMap(body)
	var puts []putSite
	var rets []*ast.ReturnStmt

	// First pass: collect Put calls and return statements belonging to
	// this scope (not to nested closures).
	walkScope(body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isPoolFunc(pass.TypesInfo, n, "Put") && len(n.Args) == 1 {
				if id, ok := ast.Unparen(n.Args[0]).(*ast.Ident); ok {
					puts = append(puts, putSite{
						pos:      n.Pos(),
						obj:      pass.ObjectOf(id),
						deferred: isDeferred(parents, n),
					})
				}
			}
		case *ast.ReturnStmt:
			rets = append(rets, n)
		}
	})

	// Second pass: judge each Get call.
	walkScope(body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isPoolFunc(pass.TypesInfo, call, "Get") {
			return
		}
		obj, ok := boundVar(pass, parents, call)
		if !ok {
			// Consumed inside a larger expression (call argument,
			// return value, field/element store, ...): ownership moved
			// with the value. A bare statement, though, drops the only
			// reference.
			if _, discarded := parents[call].(*ast.ExprStmt); discarded {
				pass.Reportf(call.Pos(),
					"tensor.Get result discarded: the borrowed matrix can never be Put back")
			}
			return
		}
		judgeTracked(pass, body, parents, call, obj, puts, rets)
	})
}

// judgeTracked handles `v := tensor.Get(...)`: v must be Put, escape to
// a new owner, or be excused.
func judgeTracked(pass *analysis.Pass, body *ast.BlockStmt, parents map[ast.Node]ast.Node, get *ast.CallExpr, obj types.Object, puts []putSite, rets []*ast.ReturnStmt) {
	var matched []putSite
	for _, p := range puts {
		if p.obj == obj {
			matched = append(matched, p)
		}
	}
	if len(matched) > 0 {
		// Paired. A non-deferred Put still leaks on any return between
		// the Get and the Put (and on panics in that window).
		firstPut := token.Pos(-1)
		for _, p := range matched {
			if p.deferred {
				return
			}
			if firstPut < 0 || p.pos < firstPut {
				firstPut = p.pos
			}
		}
		for _, ret := range rets {
			if ret.Pos() > get.End() && ret.Pos() < firstPut && !mentionsObj(pass, ret, obj) {
				pass.Reportf(ret.Pos(),
					"return leaks %s: tensor.Put(%s) only runs on the fall-through path (defer the Put or Put before returning)",
					obj.Name(), obj.Name())
			}
		}
		return
	}
	if escapes(pass, body, parents, obj) {
		return
	}
	pass.Reportf(get.Pos(),
		"tensor.Get result %s is never passed to tensor.Put and never escapes this function",
		obj.Name())
}

// boundVar returns the local variable a Get result is bound to via
// `v := Get(...)`, `v = Get(...)` or `var v = Get(...)`.
func boundVar(pass *analysis.Pass, parents map[ast.Node]ast.Node, call *ast.CallExpr) (types.Object, bool) {
	switch p := parents[call].(type) {
	case *ast.AssignStmt:
		for i, rhs := range p.Rhs {
			if ast.Unparen(rhs) == call && i < len(p.Lhs) {
				if id, ok := p.Lhs[i].(*ast.Ident); ok && id.Name != "_" {
					if obj := pass.ObjectOf(id); obj != nil {
						return obj, true
					}
				}
			}
		}
	case *ast.ValueSpec:
		for i, rhs := range p.Values {
			if ast.Unparen(rhs) == call && i < len(p.Names) && p.Names[i].Name != "_" {
				if obj := pass.ObjectOf(p.Names[i]); obj != nil {
					return obj, true
				}
			}
		}
	}
	return nil, false
}

// escapes reports whether obj is handed to a new owner somewhere in the
// scope: returned, sent, stored into a non-local lvalue, aliased,
// address-taken, or captured by a closure. Reads through the variable
// (v.Data, v.Row(i), method calls on v) and passing it to a call do
// not transfer ownership: a kernel that takes a matrix borrows it, and
// the caller still owes the Put.
func escapes(pass *analysis.Pass, body *ast.BlockStmt, parents map[ast.Node]ast.Node, obj types.Object) bool {
	esc := false
	ast.Inspect(body, func(n ast.Node) bool {
		if esc {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || pass.ObjectOf(id) != obj {
			return true
		}
		if inFuncLit(parents, id, body) {
			esc = true // captured by a closure: tracked there, owned there
			return false
		}
		switch p := parents[id].(type) {
		case *ast.ReturnStmt, *ast.SendStmt, *ast.CompositeLit, *ast.KeyValueExpr:
			esc = true
		case *ast.UnaryExpr:
			if p.Op == token.AND {
				esc = true
			}
		case *ast.AssignStmt:
			for _, rhs := range p.Rhs {
				if ast.Unparen(rhs) == ast.Node(id) {
					esc = true // aliased or stored into another lvalue
				}
			}
		}
		return true
	})
	return esc
}

// mentionsObj reports whether obj appears under n.
func mentionsObj(pass *analysis.Pass, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && pass.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}

// walkScope visits the nodes of body that belong to its function,
// stopping at closure boundaries (each FuncLit is judged separately).
func walkScope(body *ast.BlockStmt, fn func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}

// isDeferred reports whether call sits under a defer statement.
func isDeferred(parents map[ast.Node]ast.Node, call *ast.CallExpr) bool {
	for n := ast.Node(call); n != nil; n = parents[n] {
		if _, ok := n.(*ast.DeferStmt); ok {
			return true
		}
	}
	return false
}

// inFuncLit reports whether n sits inside a FuncLit nested in scope.
func inFuncLit(parents map[ast.Node]ast.Node, n ast.Node, scope *ast.BlockStmt) bool {
	for m := parents[n]; m != nil && m != ast.Node(scope); m = parents[m] {
		if _, ok := m.(*ast.FuncLit); ok {
			return true
		}
	}
	return false
}

// parentMap records each node's syntactic parent under root,
// unwrapping nothing: callers unparen as needed.
func parentMap(root ast.Node) map[ast.Node]ast.Node {
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}
