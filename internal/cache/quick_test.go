package cache

import (
	"cmp"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/hardware"
)

// Property: Select never exceeds capacity, never caches nodes outside
// the policy's candidate set, and is deterministic.
func TestSelectPropertiesQuick(t *testing.T) {
	f := func(seed uint64, capRaw uint8, devRaw uint8) bool {
		devices := int(devRaw)%4 + 2
		capacity := int(capRaw) % 40
		g := graph.ErdosRenyi(graph.GenerateConfig{NumNodes: 120, AvgDegree: 6, Seed: seed})
		rng := graph.NewRNG(seed)
		freq := make([]int64, g.NumNodes())
		for i := range freq {
			freq[i] = int64(rng.Intn(100))
		}
		assign := make([]int32, g.NumNodes())
		for i := range assign {
			assign[i] = int32(rng.Intn(devices))
		}
		for _, policy := range []Policy{PolicyHotGlobal, PolicyHotPartition, PolicyHotPartitionPlus1Hop, PolicyDegree} {
			cfg := SelectConfig{
				Policy: policy, Freq: freq, Assign: assign, Graph: g,
				CapacityNodes: capacity, Devices: devices,
			}
			lists := Select(cfg)
			again := Select(cfg)
			if len(lists) != devices {
				return false
			}
			for d, l := range lists {
				if len(l) > capacity {
					return false
				}
				if len(l) != len(again[d]) {
					return false
				}
				for i, v := range l {
					if again[d][i] != v {
						return false // nondeterministic
					}
					switch policy {
					case PolicyHotPartition:
						if assign[v] != int32(d) {
							return false // cached outside own partition
						}
					case PolicyHotPartitionPlus1Hop:
						if assign[v] != int32(d) && !hasNeighborIn(g, v, assign, int32(d)) {
							return false // outside partition+1hop
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// hasNeighborIn reports whether any out-neighbor of v (under the
// reverse orientation used by the 1-hop expansion) is assigned to d.
func hasNeighborIn(g *graph.Graph, v graph.NodeID, assign []int32, d int32) bool {
	// The expansion adds in-neighbors of partition members, i.e. v is a
	// candidate of d if v appears in the adjacency of some node of d.
	for u := 0; u < g.NumNodes(); u++ {
		if assign[u] != d {
			continue
		}
		for _, w := range g.Neighbors(graph.NodeID(u)) {
			if w == v {
				return true
			}
		}
	}
	return false
}

// Property: Locate is consistent with IsCached and host placement.
func TestLocateConsistencyQuick(t *testing.T) {
	f := func(seed uint64) bool {
		p := hwFour()
		s := NewStore(p, 100, 4, nil)
		s.HostByRange()
		rng := graph.NewRNG(seed)
		for d := 0; d < p.NumDevices(); d++ {
			var l []graph.NodeID
			for i := 0; i < 10; i++ {
				l = append(l, graph.NodeID(rng.Intn(100)))
			}
			s.ConfigureCache(d, l)
		}
		for dev := 0; dev < p.NumDevices(); dev++ {
			for v := graph.NodeID(0); v < 100; v++ {
				loc := locateAt(s, dev, v)
				if s.IsCached(dev, v) && loc != LocGPU {
					return false
				}
				if !s.IsCached(dev, v) && loc == LocGPU {
					return false
				}
				if loc == LocLocalCPU && int(s.HostMachine[v]) != p.MachineOf(dev) {
					return false
				}
				if loc == LocRemoteCPU && int(s.HostMachine[v]) == p.MachineOf(dev) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func hwFour() *hardware.Platform { return hardware.FourMachines4GPU() }

// sortFuncTop is the ranking topByScore replaced: every candidate
// sorted by a comparator that reads the score closure, hottest first,
// ties by node ID.
func sortFuncTop(cands []graph.NodeID, score func(graph.NodeID) int64, k int) []graph.NodeID {
	sorted := append([]graph.NodeID(nil), cands...)
	slices.SortFunc(sorted, func(a, b graph.NodeID) int {
		if c := cmp.Compare(score(b), score(a)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	if len(sorted) > k {
		sorted = sorted[:k]
	}
	return sorted
}

// TestTopByScoreMatchesSortFunc: topByScore returns the comparator
// ranking's list exactly, on shuffled candidates whose scores tie often,
// for small scores (the packed keys) and for scores past 32 bits (the
// pair sort), k below, at and above the candidate count.
func TestTopByScoreMatchesSortFunc(t *testing.T) {
	f := func(seed uint64, nRaw uint16, levels uint8, big bool) bool {
		r := graph.NewRNG(seed)
		n := int(nRaw % 3000)
		score := make([]int64, n)
		for i := range score {
			score[i] = int64(r.Intn(int(levels%16) + 1))
			if big {
				score[i] = score[i]<<33 | int64(r.Intn(2))
			}
		}
		cands := r.Perm(n)
		by := func(v graph.NodeID) int64 { return score[v] }
		for _, k := range []int{0, 1, n / 3, n, n + 5} {
			if !slices.Equal(topByScore(cands, by, k), sortFuncTop(cands, by, k)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
	// The packed key's edges: score 0 and 2^32-1 pack, 2^32 does not.
	cands := []graph.NodeID{4, 0, 3, 1, 2}
	for _, s := range [][]int64{{0, 0, math.MaxUint32, 0, math.MaxUint32}, {1 << 32, 0, 1 << 32, 7, 7}} {
		by := func(v graph.NodeID) int64 { return s[v] }
		if got, want := topByScore(cands, by, 5), sortFuncTop(cands, by, 5); !slices.Equal(got, want) {
			t.Errorf("scores %v: topByScore %v, want %v", s, got, want)
		}
	}
}
