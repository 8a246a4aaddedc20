package cache

import (
	"testing"

	"repro/internal/device"
	"repro/internal/graph"
	"repro/internal/hardware"
	"repro/internal/tensor"
)

func lineGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddUndirected(graph.NodeID(i), graph.NodeID(i+1))
	}
	return b.Build(true)
}

func TestSelectHotGlobal(t *testing.T) {
	freq := []int64{5, 1, 9, 3, 7, 0}
	lists := Select(SelectConfig{
		Policy: PolicyHotGlobal, Freq: freq, CapacityNodes: 3, Devices: 2,
	})
	want := map[graph.NodeID]bool{2: true, 4: true, 0: true}
	for d := 0; d < 2; d++ {
		if len(lists[d]) != 3 {
			t.Fatalf("dev %d cached %d, want 3", d, len(lists[d]))
		}
		for _, v := range lists[d] {
			if !want[v] {
				t.Errorf("dev %d cached %d, not among hottest", d, v)
			}
		}
	}
}

func TestSelectHotPartition(t *testing.T) {
	freq := []int64{5, 1, 9, 3, 7, 2}
	assign := []int32{0, 0, 0, 1, 1, 1}
	lists := Select(SelectConfig{
		Policy: PolicyHotPartition, Freq: freq, Assign: assign,
		CapacityNodes: 2, Devices: 2,
	})
	// Device 0's hottest within {0,1,2}: 2 (9) and 0 (5).
	if len(lists[0]) != 2 || lists[0][0] != 0 || lists[0][1] != 2 {
		t.Errorf("dev0 = %v, want [0 2]", lists[0])
	}
	// Device 1's hottest within {3,4,5}: 4 (7) and 3 (3).
	if len(lists[1]) != 2 || lists[1][0] != 3 || lists[1][1] != 4 {
		t.Errorf("dev1 = %v, want [3 4]", lists[1])
	}
}

func TestSelectPartitionPlus1Hop(t *testing.T) {
	g := lineGraph(6) // 0-1-2-3-4-5
	freq := []int64{1, 1, 1, 100, 1, 1}
	assign := []int32{0, 0, 0, 1, 1, 1}
	lists := Select(SelectConfig{
		Policy: PolicyHotPartitionPlus1Hop, Freq: freq, Assign: assign,
		Graph: g, CapacityNodes: 1, Devices: 2,
	})
	// Node 3 is 1-hop from partition 0 (via 2) and the hottest overall,
	// so DNP's expansion lets device 0 cache it.
	if len(lists[0]) != 1 || lists[0][0] != 3 {
		t.Errorf("dev0 = %v, want [3]", lists[0])
	}
}

func TestSelectDegreePolicy(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddUndirected(0, 1)
	b.AddUndirected(0, 2)
	b.AddUndirected(0, 3)
	g := b.Build(true)
	lists := Select(SelectConfig{Policy: PolicyDegree, Graph: g, CapacityNodes: 1, Devices: 1})
	if len(lists[0]) != 1 || lists[0][0] != 0 {
		t.Errorf("degree policy cached %v, want [0]", lists[0])
	}
}

func TestSelectZeroCapacity(t *testing.T) {
	lists := Select(SelectConfig{Policy: PolicyHotGlobal, Freq: []int64{1, 2}, CapacityNodes: 0, Devices: 2})
	for _, l := range lists {
		if len(l) != 0 {
			t.Error("zero capacity cached nodes")
		}
	}
}

func newStore(p *hardware.Platform, n, dim int, withFeats bool) *Store {
	var feats *tensor.Matrix
	if withFeats {
		feats = tensor.New(n, dim)
		for i := range feats.Data {
			feats.Data[i] = float32(i)
		}
	}
	return NewStore(p, n, dim, feats)
}

// locateAt reads device dev's location of v from the store's location
// table, the one every load charges by.
func locateAt(s *Store, dev int, v graph.NodeID) Location {
	return Location(s.locTable(dev)[v])
}

func TestLocateRules(t *testing.T) {
	p := hardware.FourMachines4GPU()
	s := newStore(p, 100, 4, false)
	s.HostByRange() // nodes 0-24 on machine 0, 25-49 on machine 1, ...
	s.ConfigureCache(0, []graph.NodeID{7})

	if got := locateAt(s, 0, 7); got != LocGPU {
		t.Errorf("cached node: %v, want gpu", got)
	}
	// No NVLink: peer cache invisible; node 8 hosted on machine 0.
	s.ConfigureCache(1, []graph.NodeID{8})
	if got := locateAt(s, 0, 8); got != LocLocalCPU {
		t.Errorf("peer-cached without NVLink: %v, want local-cpu", got)
	}
	if got := locateAt(s, 0, 90); got != LocRemoteCPU {
		t.Errorf("remote-hosted node: %v, want remote-cpu", got)
	}
	// Device 4 is on machine 1; node 30 hosted there.
	if got := locateAt(s, 4, 30); got != LocLocalCPU {
		t.Errorf("machine-1 local: %v, want local-cpu", got)
	}
}

func TestLocatePeerGPUWithNVLink(t *testing.T) {
	p := hardware.SingleMachine8GPUNVLink()
	s := newStore(p, 50, 4, false)
	s.HostByRange()
	s.ConfigureCache(3, []graph.NodeID{10})
	if got := locateAt(s, 0, 10); got != LocPeerGPU {
		t.Errorf("NVLink peer cache: %v, want peer-gpu", got)
	}
	if got := locateAt(s, 3, 10); got != LocGPU {
		t.Errorf("own cache preferred: %v", got)
	}
}

func TestHostByPartition(t *testing.T) {
	p := hardware.FourMachines4GPU()
	s := newStore(p, 8, 4, false)
	assign := []int32{0, 4, 8, 12, 0, 4, 8, 12} // one device per machine
	s.HostByPartition(assign)
	for v, d := range assign {
		if int(s.HostMachine[v]) != p.MachineOf(int(d)) {
			t.Errorf("node %d hosted on machine %d, want %d", v, s.HostMachine[v], p.MachineOf(int(d)))
		}
	}
}

func TestLoadGathersAndCharges(t *testing.T) {
	p := hardware.WithDevices(hardware.SingleMachine8GPU(), 1, 2)
	s := newStore(p, 10, 3, true)
	s.HostByRange()
	s.ConfigureCache(0, []graph.NodeID{1})
	grp := device.NewGroup(p)
	dev := grp.Devices[0]
	m, st := s.Load(dev, []graph.NodeID{1, 2, 3})
	if m.Rows != 3 || m.Cols != 3 {
		t.Fatalf("loaded shape %dx%d", m.Rows, m.Cols)
	}
	if m.At(0, 0) != 3 { // node 1 row starts at value 3
		t.Errorf("row 0 = %v, want feature of node 1", m.Row(0))
	}
	if st.Nodes[LocGPU] != 1 || st.Nodes[LocLocalCPU] != 2 {
		t.Errorf("stats = %+v", st.Nodes)
	}
	if st.Bytes[LocLocalCPU] != 2*3*4 {
		t.Errorf("cpu bytes = %d, want 24", st.Bytes[LocLocalCPU])
	}
	if dev.Clock().At(device.StageLoad) <= 0 {
		t.Error("no load time charged")
	}
	// NFP shard accounting: a read is charged at the shard width.
	s.LoadDim = 2
	if st := s.VolumeOnly(dev.ID, []graph.NodeID{2}); st.Bytes[LocLocalCPU] != 8 {
		t.Errorf("shard bytes = %d, want 8", st.Bytes[LocLocalCPU])
	}
}

func TestVolumeOnlyMatchesLoad(t *testing.T) {
	p := hardware.WithDevices(hardware.SingleMachine8GPU(), 1, 2)
	s := newStore(p, 20, 5, false)
	s.HostByRange()
	s.ConfigureCache(0, []graph.NodeID{0, 5, 10})
	nodes := []graph.NodeID{0, 1, 5, 11, 19}
	vol := s.VolumeOnly(0, nodes)
	grp := device.NewGroup(p)
	_, st := s.Load(grp.Devices[0], nodes)
	if vol.Nodes != st.Nodes || vol.Bytes != st.Bytes {
		t.Error("VolumeOnly diverges from Load accounting")
	}
}

func TestRemoteLoadSlowerThanLocal(t *testing.T) {
	p := hardware.FourMachines4GPU()
	s := newStore(p, 1000, 64, false)
	s.HostByRange()
	grp := device.NewGroup(p)
	local := make([]graph.NodeID, 200)
	remote := make([]graph.NodeID, 200)
	for i := range local {
		local[i] = graph.NodeID(i)            // machine 0
		remote[i] = graph.NodeID(750 + i%250) // machine 3
	}
	_, stLocal := s.Load(grp.Devices[0], local)
	_, stRemote := s.Load(grp.Devices[1], remote)
	if stRemote.Seconds <= stLocal.Seconds {
		t.Errorf("remote load %v not slower than local %v", stRemote.Seconds, stLocal.Seconds)
	}
}

func TestLoadStatsAdd(t *testing.T) {
	var a, b LoadStats
	a.Nodes[LocGPU] = 1
	a.Bytes[LocGPU] = 4
	a.Seconds = 1
	b.Nodes[LocGPU] = 2
	b.Bytes[LocGPU] = 8
	b.Seconds = 2
	a.Add(b)
	if a.Nodes[LocGPU] != 3 || a.Bytes[LocGPU] != 12 || a.Seconds != 3 {
		t.Errorf("Add result %+v", a)
	}
}

// TestTierRowsMatchAdmission: for a grid of (budget, int8 fraction,
// row width), the row counts TierRows reports — what the re-planner's
// tier model integrates over — are the lengths of the lists Admit
// installs, the two bands fit the budget, and the split is taken in
// whole bytes: at budget 999, frac 0.5, dim 125 the warm band gets
// int(499.5) = 499 bytes, leaving 500 = exactly one fp32 row, where
// budget*(1-frac)/row in float arithmetic (the re-planner's former
// private copy) found 499.5/500 = none.
func TestTierRowsMatchAdmission(t *testing.T) {
	if hot, warm := TierRows(999, 0.5, 125); hot != 1 || warm != 3 {
		t.Fatalf("TierRows(999, 0.5, 125) = %d hot, %d warm; want 1, 3", hot, warm)
	}
	const n = 4096
	freq := make([]int64, n)
	for v := range freq {
		freq[v] = int64(n - v)
	}
	p := hardware.WithDevices(hardware.SingleMachine8GPU(), 1, 2)
	for _, budget := range []int64{0, 1, 999, 1001, 4096, 65537, 1 << 20} {
		for _, frac := range []float64{0, 0.25, 0.5, 0.99} {
			for _, dim := range []int{1, 16, 125, 128} {
				hot, warm := TierRows(budget, frac, dim)
				if got := int64(hot)*int64(4*dim) + int64(warm)*tensor.QuantRowBytes(dim); got > budget {
					t.Fatalf("budget %d frac %v dim %d: %d hot + %d warm rows take %d bytes", budget, frac, dim, hot, warm, got)
				}
				s := NewStore(p, n, dim, nil)
				s.Admit(SelectConfig{Policy: PolicyHotGlobal, Freq: freq}, budget, frac)
				wantHot := min(hot, n)
				wantWarm := min(warm, n-wantHot)
				for d := 0; d < p.NumDevices(); d++ {
					if len(s.CachedList(d)) != wantHot || len(s.QCachedList(d)) != wantWarm {
						t.Fatalf("budget %d frac %v dim %d dev %d: admitted %d hot / %d warm, TierRows says %d / %d",
							budget, frac, dim, d, len(s.CachedList(d)), len(s.QCachedList(d)), wantHot, wantWarm)
					}
				}
			}
		}
	}
}

// TestPartitionCandidatesFirstSeenOrder checks each device's DNP list
// against a map-based reference: its own nodes ascending, then every
// 1-hop neighbour once, in first-seen order.
func TestPartitionCandidatesFirstSeenOrder(t *testing.T) {
	g := graph.ErdosRenyi(graph.GenerateConfig{NumNodes: 300, AvgDegree: 6, Seed: 2})
	rng := graph.NewRNG(5)
	assign := make([]int32, g.NumNodes())
	for v := range assign {
		assign[v] = int32(rng.Intn(3))
	}
	got := partitionCandidates(assign, 3, g)
	for d := range got {
		var want []graph.NodeID
		seen := map[graph.NodeID]bool{}
		for v, a := range assign {
			if int(a) == d {
				want = append(want, graph.NodeID(v))
				seen[graph.NodeID(v)] = true
			}
		}
		for _, v := range append([]graph.NodeID(nil), want...) {
			for _, u := range g.Neighbors(v) {
				if !seen[u] {
					seen[u] = true
					want = append(want, u)
				}
			}
		}
		if len(got[d]) != len(want) {
			t.Fatalf("device %d: %d candidates, want %d", d, len(got[d]), len(want))
		}
		for i := range want {
			if got[d][i] != want[i] {
				t.Fatalf("device %d: candidate %d is %d, want %d", d, i, got[d][i], want[i])
			}
		}
	}
}
