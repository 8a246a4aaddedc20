// Package goownership requires every goroutine spawned in the
// concurrency-bearing packages (engine, comm, serve, transport) to
// have a join or cancel path.
//
// The runtime's goroutines are all owned: the sync goroutine is
// drained through its ack/done channels before the schedule is
// charged, the prefetcher closes its output channel and the consumer
// drains it, transport loops signal WaitGroups that Close waits on,
// serve workers exit when Close closes the request channel and signal
// the WaitGroup Close waits on. A `go`
// statement with none of those is a leak: it outlives its owner,
// races teardown, and (for the gradsync class) silently breaks the
// drain-before-collective contract.
//
// For each `go` statement the analyzer resolves the spawned body — a
// function literal in place, or the declaration of a named
// callee/method through the module call graph — and accepts any of:
//
//   - WaitGroup join: the body calls Done on a sync.WaitGroup that
//     some function in the module Waits on (same variable, or same
//     field of the same type);
//   - channel join: the body sends on or closes a channel that some
//     function in the module receives from (channel parameters are
//     mapped back to the spawner's argument);
//   - cancellation: the body receives from a context's Done() channel,
//     or from a channel that the module closes or sends on elsewhere
//     (a quit/stop channel).
//
// Anything else is reported at the `go` statement. A goroutine whose
// lifetime is genuinely process-scoped must say so with
// //apt:allow goownership <reason>.
package goownership

import (
	"go/ast"
	"go/types"
	"strings"
	"sync"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "goownership",
	Doc:  "every goroutine in engine/comm/serve/transport needs a join or cancel path",
	Run:  run,
}

// scopedPkgs are the package-path suffixes the invariant applies to.
var scopedPkgs = []string{"engine", "comm", "serve", "transport"}

func inScope(path string) bool {
	for _, s := range scopedPkgs {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

// A sigKey identifies a synchronization object across functions:
// either a types.Object (locals, params, package vars) or a
// fieldKey (field f of named type T), so `gs.acks` in the goroutine
// matches `<-gs.acks` in finish regardless of receiver names.
type fieldKey struct {
	typ   *types.TypeName
	field string
}

// keyOf resolves a channel/WaitGroup expression to its identity key,
// or nil when the expression is too dynamic to track.
func keyOf(info *types.Info, expr ast.Expr) any {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		if obj := info.ObjectOf(e); obj != nil {
			return obj
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			if named := namedOf(sel.Recv()); named != nil {
				return fieldKey{typ: named.Obj(), field: e.Sel.Name}
			}
		}
		// Package-qualified vars (pkg.Chan) resolve through Uses.
		if obj := info.ObjectOf(e.Sel); obj != nil {
			if _, isVar := obj.(*types.Var); isVar {
				return obj
			}
		}
	}
	return nil
}

func namedOf(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

func isWaitGroup(t types.Type) bool {
	n := namedOf(t)
	return n != nil && n.Obj().Name() == "WaitGroup" && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync"
}

func isChan(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// evidence is the module-wide synchronization index: which objects are
// Waited on, received from, and closed/sent-to — the other half of
// every join handshake.
type evidence struct {
	waits  map[any]bool // X in some `X.Wait()`
	recvs  map[any]bool // C in some `<-C`, `range C`, or select case
	wakers map[any]bool // C in some `close(C)` or `C <- v` (cancel sources)
}

var evCache struct {
	sync.Mutex
	graph *analysis.CallGraph
	ev    *evidence
}

func moduleEvidence(g *analysis.CallGraph) *evidence {
	evCache.Lock()
	defer evCache.Unlock()
	if evCache.graph == g {
		return evCache.ev
	}
	ev := &evidence{waits: map[any]bool{}, recvs: map[any]bool{}, wakers: map[any]bool{}}
	for _, node := range g.Funcs() {
		info := node.Pkg.Info
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.CallExpr:
				if sel, ok := ast.Unparen(s.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
					if isWaitGroup(info.TypeOf(sel.X)) {
						if k := keyOf(info, sel.X); k != nil {
							ev.waits[k] = true
						}
					}
				}
				if analysis.IsBuiltinCall(info, s, "close") && len(s.Args) == 1 {
					if k := keyOf(info, s.Args[0]); k != nil {
						ev.wakers[k] = true
					}
				}
			case *ast.UnaryExpr:
				if s.Op.String() == "<-" {
					if k := keyOf(info, s.X); k != nil {
						ev.recvs[k] = true
					}
				}
			case *ast.SendStmt:
				if k := keyOf(info, s.Chan); k != nil {
					ev.wakers[k] = true
				}
			case *ast.RangeStmt:
				if isChan(info.TypeOf(s.X)) {
					if k := keyOf(info, s.X); k != nil {
						ev.recvs[k] = true
					}
				}
			}
			return true
		})
	}
	evCache.graph, evCache.ev = g, ev
	return ev
}

func run(pass *analysis.Pass) error {
	if pass.Graph == nil || !inScope(pass.PkgPath) {
		return nil
	}
	ev := moduleEvidence(pass.Graph)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			checkSpawn(pass, ev, g)
			return true
		})
	}
	return nil
}

// checkSpawn resolves the spawned body and looks for join/cancel
// evidence inside it.
func checkSpawn(pass *analysis.Pass, ev *evidence, g *ast.GoStmt) {
	var body *ast.BlockStmt
	info := pass.TypesInfo
	// paramArg maps a callee parameter object to the argument
	// expression at the spawn site, so `close(out)` inside the callee
	// counts as closing the spawner's channel.
	paramArg := map[types.Object]ast.Expr{}

	switch fun := ast.Unparen(g.Call.Fun).(type) {
	case *ast.FuncLit:
		body = fun.Body
	default:
		callee := analysis.CalleeFunc(pass.TypesInfo, g.Call)
		if callee == nil {
			pass.Reportf(g.Pos(), "goroutine body is dynamic (function value); spawn a named function or literal so its join path is checkable, or //apt:allow goownership <reason>")
			return
		}
		node := pass.Graph.Node(callee)
		if node == nil {
			pass.Reportf(g.Pos(), "goroutine body %s is outside the module; wrap it so the join path is visible, or //apt:allow goownership <reason>", callee.Name())
			return
		}
		body = node.Decl.Body
		info = node.Pkg.Info
		sig := callee.Type().(*types.Signature)
		for i := 0; i < sig.Params().Len() && i < len(g.Call.Args); i++ {
			paramArg[sig.Params().At(i)] = g.Call.Args[i]
		}
	}

	resolve := func(k any) any {
		if obj, ok := k.(types.Object); ok {
			if arg, ok := paramArg[obj]; ok {
				if ak := keyOf(pass.TypesInfo, arg); ak != nil {
					return ak
				}
			}
		}
		return k
	}

	joined := false
	ast.Inspect(body, func(n ast.Node) bool {
		if joined {
			return false
		}
		switch s := n.(type) {
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(s.Fun).(*ast.SelectorExpr); ok {
				// WaitGroup join: Done here, Wait somewhere in the module.
				if sel.Sel.Name == "Done" && isWaitGroup(info.TypeOf(sel.X)) {
					if k := resolve(keyOf(info, sel.X)); k != nil && ev.waits[k] {
						joined = true
					}
				}
				// Context cancellation: the body observes ctx.Done().
				if sel.Sel.Name == "Done" && isContext(info.TypeOf(sel.X)) {
					joined = true
				}
			}
			// Channel join: the body closes a channel someone receives from.
			if analysis.IsBuiltinCall(info, s, "close") && len(s.Args) == 1 {
				if k := resolve(keyOf(info, s.Args[0])); k != nil && ev.recvs[k] {
					joined = true
				}
			}
		case *ast.SendStmt:
			// Channel join: the body sends on a channel someone receives from.
			if k := resolve(keyOf(info, s.Chan)); k != nil && ev.recvs[k] {
				joined = true
			}
		case *ast.UnaryExpr:
			// Cancellation: the body receives from a channel the module
			// can close or send on (quit/stop channels).
			if s.Op.String() == "<-" {
				if k := resolve(keyOf(info, s.X)); k != nil && ev.wakers[k] {
					joined = true
				}
			}
		case *ast.RangeStmt:
			if isChan(info.TypeOf(s.X)) {
				if k := resolve(keyOf(info, s.X)); k != nil && ev.wakers[k] {
					joined = true
				}
			}
		}
		return !joined
	})
	if !joined {
		pass.Reportf(g.Pos(), "goroutine has no join or cancel path (no WaitGroup Done/Wait pair, no channel handshake, no cancellation receive): the owner cannot retire it (//apt:allow goownership <reason> if its lifetime is process-scoped)")
	}
}

func isContext(t types.Type) bool {
	n := namedOf(t)
	return n != nil && n.Obj().Name() == "Context" && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "context"
}
