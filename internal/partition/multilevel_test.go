package partition

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
)

// rawGraph builds a CSR graph by hand, not through graph.Builder, so
// it has what Builder would normalise away: unsorted rows, repeated
// neighbours, self-loops and one-directional edges. The last node is
// isolated: its row is empty and no row lists it.
func rawGraph(n int, seed uint64) *graph.Graph {
	rng := graph.NewRNG(seed)
	g := &graph.Graph{Indptr: make([]int64, n+1)}
	for v := 0; v < n-1; v++ {
		deg := 1 + rng.Intn(8)
		for i := 0; i < deg; i++ {
			var u int
			switch r := rng.Intn(10); {
			case r == 0:
				u = v // self-loop
			case r < 3 && len(g.Indices) > int(g.Indptr[v]):
				u = int(g.Indices[len(g.Indices)-1]) // repeat the previous neighbour
			case r < 6:
				u = (v/20)*20 + rng.Intn(20) // local: community structure
			default:
				u = rng.Intn(n - 1)
			}
			if u >= n-1 {
				u = n - 2
			}
			g.Indices = append(g.Indices, graph.NodeID(u))
		}
		g.Indptr[v+1] = int64(len(g.Indices))
	}
	g.Indptr[n] = int64(len(g.Indices))
	return g
}

func assignHash(assign []int32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, a := range assign {
		binary.LittleEndian.PutUint32(b[:], uint32(a))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestMultilevelGolden pins the exact assignment Multilevel returns,
// as the fnv64a of Assign. Every set-up cost saved in the partitioner
// must leave these unchanged. Mutation checks confirmed that the pins
// bite where it matters: merging a coarse row's repeated targets into
// one entry (a full dedup, see wgraph) flips all of them, and scanning
// symmetrize's input rows backwards flips every "raw" one.
func TestMultilevelGolden(t *testing.T) {
	want := map[string]uint64{
		"PS/k2/eb=false":   0x5c307e3c189cd6e5,
		"PS/k2/eb=true":    0xa2025ece1aee81d5,
		"PS/k4/eb=false":   0x5cff752a8e4b1755,
		"PS/k4/eb=true":    0x29cd10aea5c840a5,
		"FS/k2/eb=false":   0x607a0c1c513d3355,
		"FS/k2/eb=true":    0x607a0c1c513d3355,
		"FS/k4/eb=false":   0xb62584c833855b05,
		"FS/k4/eb=true":    0xb62584c833855b05,
		"IM/k2/eb=false":   0x4cb6d3f30d78bab4,
		"IM/k2/eb=true":    0x4cb6d3f30d78bab4,
		"IM/k4/eb=false":   0xdc2554b83f87fc95,
		"IM/k4/eb=true":    0xbb62dd4b0c411905,
		"ER/k2/eb=false":   0x6ef9664dddfce694,
		"ER/k2/eb=true":    0x6ef9664dddfce694,
		"ER/k4/eb=false":   0xdf2a1d96144d01f5,
		"ER/k4/eb=true":    0xdf2a1d96144d01f5,
		"BA/k2/eb=false":   0xd7c07610a62619e4,
		"BA/k2/eb=true":    0xb98836a66a7164b4,
		"BA/k4/eb=false":   0xd89709917b15d0a5,
		"BA/k4/eb=true":    0x686c70ae497caf85,
		"RMAT/k2/eb=false": 0x79056c879e53d775,
		"RMAT/k2/eb=true":  0x3ac509b86016d795,
		"RMAT/k4/eb=false": 0x37cef54a98e87035,
		"RMAT/k4/eb=true":  0xb286cd9ccfb494e5,
		"raw/k2/eb=false":  0x5914f62c60c9da04,
		"raw/k2/eb=true":   0x5914f62c60c9da04,
		"raw/k4/eb=false":  0xdf85d87daec3b387,
		"raw/k4/eb=true":   0xf68f12cbdd2e5185,
	}
	graphs := map[string]*graph.Graph{}
	var names []string
	for _, spec := range dataset.Presets(0.02) {
		graphs[spec.Abbr] = dataset.Build(spec, false).Graph
		names = append(names, spec.Abbr)
	}
	graphs["ER"] = graph.ErdosRenyi(graph.GenerateConfig{NumNodes: 1500, AvgDegree: 8, Seed: 3})
	graphs["BA"] = graph.PreferentialAttachment(graph.GenerateConfig{NumNodes: 1500, AvgDegree: 8, Seed: 4})
	graphs["RMAT"] = graph.RMAT(graph.RMATConfig{
		GenerateConfig: graph.GenerateConfig{NumNodes: 2000, AvgDegree: 10, Seed: 5},
		A:              0.6, B: 0.15, C: 0.15,
	})
	graphs["raw"] = rawGraph(700, 6)
	names = append(names, "ER", "BA", "RMAT", "raw")
	for _, name := range names {
		g := graphs[name]
		for _, k := range []int{2, 4} {
			for _, eb := range []bool{false, true} {
				id := fmt.Sprintf("%s/k%d/eb=%v", name, k, eb)
				p := Multilevel(g, k, MultilevelConfig{Seed: 1, EdgeBalanced: eb})
				if err := p.Validate(false); err != nil {
					t.Fatalf("%s: %v", id, err)
				}
				got := assignHash(p.Assign)
				if w, ok := want[id]; !ok || got != w {
					t.Errorf("%s: assignment fnv64a %016x, want %016x", id, got, w)
				}
			}
		}
	}
}

// TestCoarsenInvariants checks every coarse level's rows: sorted by
// target, no self-entry, and total edge weight equal to the fine
// graph's weight between distinct coarse vertices. Vertex weights are
// conserved too.
func TestCoarsenInvariants(t *testing.T) {
	for _, g := range []*graph.Graph{
		rawGraph(900, 2),
		graph.PreferentialAttachment(graph.GenerateConfig{NumNodes: 1200, AvgDegree: 8, Seed: 9}),
	} {
		w := symmetrize(g)
		rng := graph.NewRNG(3)
		for lvl := 0; w.n() > 20; lvl++ {
			cmap, c := coarsen(w, rng)
			var cross int64
			for v := 0; v < w.n(); v++ {
				for i := w.xadj[v]; i < w.xadj[v+1]; i++ {
					if cmap[v] != cmap[w.adj[i]] {
						cross += int64(w.adjw[i])
					}
				}
			}
			var total int64
			for v := 0; v < c.n(); v++ {
				for i := c.xadj[v]; i < c.xadj[v+1]; i++ {
					if int(c.adj[i]) == v {
						t.Fatalf("level %d: coarse row %d lists itself", lvl, v)
					}
					if i > c.xadj[v] && c.adj[i] < c.adj[i-1] {
						t.Fatalf("level %d: coarse row %d not sorted by target", lvl, v)
					}
					total += int64(c.adjw[i])
				}
			}
			if total != cross {
				t.Fatalf("level %d: coarse edge weight %d, fine cross-pair weight %d", lvl, total, cross)
			}
			if sum64(c.vw) != sum64(w.vw) || sum64(c.nw) != sum64(w.nw) {
				t.Fatalf("level %d: vertex weights not conserved", lvl)
			}
			if c.n() >= w.n() {
				break
			}
			w = c
		}
	}
}

// referenceGraphs are the inputs the reference tests run on: raw CSR
// graphs (unsorted rows, repeats, self-loops, one-way edges),
// preferential-attachment and Erdős–Rényi graphs, three seeds each.
func referenceGraphs() map[string]*graph.Graph {
	gs := map[string]*graph.Graph{}
	for seed := uint64(1); seed <= 3; seed++ {
		gs[fmt.Sprintf("raw/s%d", seed)] = rawGraph(700, seed)
		gs[fmt.Sprintf("BA/s%d", seed)] = graph.PreferentialAttachment(graph.GenerateConfig{NumNodes: 1200, AvgDegree: 8, Seed: seed})
		gs[fmt.Sprintf("ER/s%d", seed)] = graph.ErdosRenyi(graph.GenerateConfig{NumNodes: 1000, AvgDegree: 8, Seed: seed})
	}
	return gs
}

// TestCoarsenMatchesTwoPass holds coarsen to coarsenTwoPass, the form
// that kept every entry's row and gathered rows and weights by index:
// the fine->coarse map and the coarse graph must be equal at every
// level of a full coarsening, both balance weightings included.
func TestCoarsenMatchesTwoPass(t *testing.T) {
	for name, g := range referenceGraphs() {
		for _, eb := range []bool{false, true} {
			cfg := MultilevelConfig{EdgeBalanced: eb}
			graphs, _ := hierarchy(g, g.NumNodes(), cfg, nil) // k*coarsenTarget >= n: level 0 only
			w := graphs[0]
			rng, ref := graph.NewRNG(7), graph.NewRNG(7)
			for lvl := 0; w.n() > 20; lvl++ {
				cmap, c := coarsen(w, rng)
				wantMap, want := coarsenTwoPass(w, ref)
				id := fmt.Sprintf("%s/eb=%v/level %d", name, eb, lvl)
				switch {
				case !slices.Equal(cmap, wantMap):
					t.Fatalf("%s: cmap differs", id)
				case !slices.Equal(c.xadj, want.xadj):
					t.Fatalf("%s: xadj differs", id)
				case !slices.Equal(c.adj, want.adj):
					t.Fatalf("%s: adj differs", id)
				case !slices.Equal(c.adjw, want.adjw):
					t.Fatalf("%s: adjw differs", id)
				case !slices.Equal(c.vw, want.vw) || !slices.Equal(c.nw, want.nw):
					t.Fatalf("%s: vertex weights differ", id)
				}
				if c.n() >= w.n()*9/10 {
					break
				}
				w = c
			}
		}
	}
}

// TestRefineMatchesRowScan holds refine, which keeps a connectivity
// table, to refineScan, which rescans a vertex's row at every visit:
// both must leave the same assignment and the same RNG state. It walks
// every level of a real coarsening, finest last, as Multilevel does,
// and at every level also refines a uniformly random assignment, which
// moves many vertices. Level 0 has unit edge weights, and without edge
// balance unit vertex weights too, so at k >= 3 gains often tie and the
// row-order tie rule decides the move.
func TestRefineMatchesRowScan(t *testing.T) {
	for name, g := range referenceGraphs() {
		for _, k := range []int{2, 3, 4, 5, 8} {
			for _, eb := range []bool{false, true} {
				id := fmt.Sprintf("%s/k%d/eb=%v", name, k, eb)
				cfg := MultilevelConfig{Seed: uint64(k), EdgeBalanced: eb}
				rng := graph.NewRNG(cfg.Seed)
				check := func(lvl int, input string, w *wgraph, assign []int32) []int32 {
					t.Helper()
					want := slices.Clone(assign)
					ref := *rng
					refine(w, assign, k, rng)
					refineScan(w, want, k, &ref)
					if !slices.Equal(assign, want) {
						t.Fatalf("%s/level %d/%s input: assignments differ", id, lvl, input)
					}
					if *rng != ref {
						t.Fatalf("%s/level %d/%s input: RNG states differ", id, lvl, input)
					}
					return assign
				}
				graphs, maps := hierarchy(g, k, cfg, rng)
				lvl := len(graphs) - 1
				assign := check(lvl, "grown", graphs[lvl], growInitial(graphs[lvl], k, rng))
				for ; lvl >= 0; lvl-- {
					w := graphs[lvl]
					if lvl < len(maps) {
						fine := make([]int32, w.n())
						for v := range fine {
							fine[v] = assign[maps[lvl][v]]
						}
						assign = check(lvl, "projected", w, fine)
					}
					random := make([]int32, w.n())
					for v := range random {
						random[v] = int32(rng.Intn(k))
					}
					check(lvl, "random", w, random)
				}
			}
		}
	}
}

var sinkPartitioning *Partitioning

// BenchmarkMultilevel partitions every workload's graph at the
// benchmark's scale as a world-2 job's set-up does (edge-balanced, in
// two), and PS in eight as well. Each case reports the number of coarse
// levels and their total entries, the work coarsen and refine scale
// with.
func BenchmarkMultilevel(b *testing.B) {
	for _, c := range []struct {
		abbr  string
		scale float64
		k     int
	}{
		{"PS", 0.2, 2},
		{"FS", 0.1, 2},
		{"IM", 0.1, 2},
		{"PS", 0.2, 8},
	} {
		b.Run(fmt.Sprintf("%s/k%d", c.abbr, c.k), func(b *testing.B) {
			spec, err := dataset.ByAbbr(c.abbr, c.scale)
			if err != nil {
				b.Fatal(err)
			}
			g := dataset.Build(spec, false).Graph
			cfg := MultilevelConfig{Seed: 1, EdgeBalanced: true}
			graphs, _ := hierarchy(g, c.k, cfg, graph.NewRNG(cfg.Seed))
			var entries int
			for _, w := range graphs[1:] {
				entries += len(w.adj)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkPartitioning = Multilevel(g, c.k, cfg)
			}
			b.ReportMetric(float64(len(graphs)-1), "levels")
			b.ReportMetric(float64(entries), "coarse-entries")
		})
	}
}
