// Package lockstep flags collective operations reachable under
// rank-divergent control flow — the classic divergent-collective
// deadlock.
//
// Every collective (AllReduce*, AllGather*, AllToAll*, Barrier,
// AnyTrue, RingAllReduceData) is a rendezvous: each rank must issue
// the same collective sequence or the world deadlocks — rank 0 waits
// in a Barrier no one else entered, everyone else waits in the next
// AllReduce rank 0 never reaches. The two ways repos grow this bug:
//
//   - a branch whose condition depends on the process's rank
//     (`if rank == 0 { barrier() }`, `if c.Rank() != 0 { ... }`)
//     guarding a call that — possibly transitively, through any number
//     of helpers — issues a collective; and
//   - a collective issued from inside `for ... range m` over a map:
//     Go map iteration order is per-process random, so two ranks
//     walking "the same" map issue the same collectives in different
//     orders, which interleaves payloads across different operations.
//
// The analyzer uses the module call graph (Pass.Graph) to follow
// helpers: the branch body doesn't need to name AllReduce — calling
// anything from which a collective is reachable is flagged, with the
// witness path in the message. Rank-dependence is mostly syntactic:
// the condition mentions an identifier or selector whose name begins
// or ends with "rank" (rank, localRank, Rank(), cfg.LocalRank, o.Rank),
// or the ID of a device.Device — a worker's device id is its rank
// (w.dev.ID).
// Rank-uniform guards (backend checks, error paths, step counts) are
// not flagged; genuinely rank-divergent collectives that are correct
// by a higher protocol must carry //apt:allow lockstep with the
// argument.
package lockstep

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
	"sync"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockstep",
	Doc:  "flag collectives reachable under rank-dependent or map-iteration-dependent control flow",
	Run:  run,
}

// collectiveNames are the comm package's rendezvous operations. Note
// AllReduceModel is NOT one: it is the cost-model query (pure local
// arithmetic), which is precisely why the set is explicit instead of a
// prefix match.
var collectiveNames = map[string]bool{
	"AllReduce":         true,
	"AllReduceCodec":    true,
	"AllGather":         true,
	"AllGatherNoCharge": true,
	"AllToAll":          true,
	"AllToAllNoCharge":  true,
	"Barrier":           true,
	"AnyTrue":           true,
	"RingAllReduceData": true,
}

// isCollective reports whether fn is a collective method of a comm
// package (matched by import-path suffix so testdata can stub it).
func isCollective(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil || !collectiveNames[fn.Name()] {
		return false
	}
	if fn.Type().(*types.Signature).Recv() == nil {
		return false
	}
	p := fn.Pkg().Path()
	return p == "comm" || strings.HasSuffix(p, "/comm")
}

// reachCache memoizes the Reachers query per call graph: the driver
// runs one analyzer over many packages against the same graph.
var reachCache struct {
	sync.Mutex
	graph *analysis.CallGraph
	reach *analysis.Reach
}

func collectiveReachers(g *analysis.CallGraph) *analysis.Reach {
	reachCache.Lock()
	defer reachCache.Unlock()
	if reachCache.graph != g {
		reachCache.graph = g
		reachCache.reach = g.Reachers(isCollective)
	}
	return reachCache.reach
}

func run(pass *analysis.Pass) error {
	if pass.Graph == nil {
		return nil
	}
	reach := collectiveReachers(pass.Graph)
	reported := map[token.Pos]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.IfStmt:
				if rankDependent(pass, s.Cond) {
					cause := "rank-dependent branch"
					flagCollectives(pass, reach, reported, s.Body, cause)
					if s.Else != nil {
						flagCollectives(pass, reach, reported, s.Else, cause)
					}
				}
			case *ast.SwitchStmt:
				if s.Tag != nil && rankDependent(pass, s.Tag) {
					flagCollectives(pass, reach, reported, s.Body, "rank-dependent switch")
				}
			case *ast.RangeStmt:
				if t := pass.TypeOf(s.X); t != nil {
					if _, ok := t.Underlying().(*types.Map); ok {
						flagCollectives(pass, reach, reported, s.Body,
							"map-range body (iteration order differs across ranks)")
					}
				}
			}
			return true
		})
	}
	return nil
}

// rankDependent reports whether cond mentions a rank-like name — an
// identifier or selector beginning or ending with "rank" (case
// insensitive) — or a device id. Prefix/suffix matching keeps names
// like "misranked" out while catching rank, localRank, myRank, rankID,
// Rank(), *rank.
func rankDependent(pass *analysis.Pass, cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		var name string
		switch e := n.(type) {
		case *ast.Ident:
			name = e.Name
		case *ast.SelectorExpr:
			if e.Sel.Name == "ID" && isDevice(pass.TypeOf(e.X)) {
				found = true
				return false
			}
			name = e.Sel.Name
		default:
			return true
		}
		lower := strings.ToLower(name)
		if strings.HasPrefix(lower, "rank") || strings.HasSuffix(lower, "rank") {
			found = true
			return false
		}
		return true
	})
	return found
}

// isDevice reports whether t is device.Device or *device.Device of a
// device package (matched by import-path suffix, as isCollective
// matches comm, so testdata can stub it).
func isDevice(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Device" || named.Obj().Pkg() == nil {
		return false
	}
	p := named.Obj().Pkg().Path()
	return p == "device" || strings.HasSuffix(p, "/device")
}

// flagCollectives reports every call in body that is, or transitively
// reaches, a collective. reported dedups call sites claimed by an
// enclosing construct (a guarded map-range would otherwise flag each
// call twice).
func flagCollectives(pass *analysis.Pass, reach *analysis.Reach, reported map[token.Pos]bool, body ast.Node, cause string) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || reported[call.Pos()] {
			return true
		}
		callee := analysis.CalleeFunc(pass.TypesInfo, call)
		if callee == nil {
			return true
		}
		if isCollective(callee) {
			reported[call.Pos()] = true
			pass.Reportf(call.Pos(),
				"collective %s issued under %s: every rank must issue the same collective sequence (//apt:allow lockstep <why divergence is safe> if protocol-correct)",
				callee.Name(), cause)
			return true
		}
		if reach.Reaches(callee) {
			reported[call.Pos()] = true
			path := strings.Join(reach.Path(callee), " → ")
			pass.Reportf(call.Pos(),
				"call to %s under %s transitively issues a collective (%s → %s): every rank must issue the same collective sequence",
				callee.Name(), cause, callee.Name(), path)
		}
		return true
	})
}
