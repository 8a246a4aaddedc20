package partition

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
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

var sinkPartitioning *Partitioning

// BenchmarkMultilevel partitions the PS preset at the benchmark
// workloads' scale (0.2) in two, edge-balanced, as a world-2 job's
// set-up does.
func BenchmarkMultilevel(b *testing.B) {
	spec, err := dataset.ByAbbr("PS", 0.2)
	if err != nil {
		b.Fatal(err)
	}
	g := dataset.Build(spec, false).Graph
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkPartitioning = Multilevel(g, 2, MultilevelConfig{Seed: 1, EdgeBalanced: true})
	}
}
