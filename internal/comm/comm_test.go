package comm

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/device"
	"repro/internal/hardware"
	"repro/internal/obs"
	"repro/internal/tensor"
)

func newTestComm(p *hardware.Platform) (*Comm, *device.Group) {
	g := device.NewGroup(p)
	return New(g), g
}

// traceSpans gives c one span track per device and returns the
// collector holding them.
func traceSpans(c *Comm) *obs.Collector {
	col := obs.NewCollector()
	c.Spans = make([]*obs.Track, c.NumDevices())
	for d := range c.Spans {
		c.Spans[d] = col.AddTrack("comm", fmt.Sprintf("dev%d/comm", d))
	}
	return col
}

// spanBytes sums the Bytes of op's spans on one track.
func spanBytes(tr *obs.Track, op string) int64 {
	var n int64
	for _, s := range tr.Spans() {
		if s.Stage == op {
			n += s.Bytes
		}
	}
	return n
}

func TestAllToAllDelivery(t *testing.T) {
	p := hardware.SingleMachine8GPU()
	p = hardware.WithDevices(p, 1, 4)
	c, _ := newTestComm(p)
	n := 4
	var mu sync.Mutex
	got := make([][]Payload, n)
	RunParallel(n, func(dev int) {
		outs := make([]Payload, n)
		for j := 0; j < n; j++ {
			outs[j] = Payload{Ints: []int32{int32(dev*100 + j)}}
		}
		in := c.AllToAll(dev, device.StageShuffle, outs)
		mu.Lock()
		got[dev] = in
		mu.Unlock()
	})
	for dev := 0; dev < n; dev++ {
		for j := 0; j < n; j++ {
			want := int32(j*100 + dev)
			if got[dev][j].Ints[0] != want {
				t.Errorf("dev %d from %d: got %d, want %d", dev, j, got[dev][j].Ints[0], want)
			}
		}
	}
}

func TestAllToAllChargesTime(t *testing.T) {
	p := hardware.WithDevices(hardware.SingleMachine8GPU(), 1, 4)
	c, g := newTestComm(p)
	col := traceSpans(c)
	RunParallel(4, func(dev int) {
		outs := make([]Payload, 4)
		for j := range outs {
			if j != dev {
				outs[j] = Payload{Bytes: 12_000_000} // 12MB to each peer
			}
		}
		c.AllToAll(dev, device.StageShuffle, outs)
	})
	// 36MB over 12GB/s PCIe = ~3ms.
	for _, d := range g.Devices {
		e := d.Clock().At(device.StageShuffle)
		if e < 0.002 || e > 0.01 {
			t.Errorf("dev %d shuffle time %v, want ~3ms", d.ID, e)
		}
	}
	// Each device's span carries the 36MB it sent plus the 36MB it received.
	for d, tr := range col.Tracks() {
		if got := spanBytes(tr, "alltoall"); got != 2*3*12_000_000 {
			t.Errorf("dev %d alltoall span bytes = %d, want %d", d, got, 2*3*12_000_000)
		}
	}
}

func TestCrossMachineCostsMore(t *testing.T) {
	intra := hardware.WithDevices(hardware.SingleMachine8GPU(), 1, 4)
	inter := hardware.WithDevices(hardware.FourMachines4GPU(), 4, 1)
	run := func(p *hardware.Platform) float64 {
		c, g := newTestComm(p)
		RunParallel(4, func(dev int) {
			outs := make([]Payload, 4)
			for j := range outs {
				if j != dev {
					outs[j] = Payload{Bytes: 1 << 22}
				}
			}
			c.AllToAll(dev, device.StageShuffle, outs)
		})
		return g.StageMax().At(device.StageShuffle)
	}
	if ti, tx := run(intra), run(inter); tx <= ti {
		t.Errorf("cross-machine alltoall %v not slower than intra %v", tx, ti)
	}
}

func TestAllReduceSum(t *testing.T) {
	p := hardware.WithDevices(hardware.SingleMachine8GPU(), 1, 4)
	c, _ := newTestComm(p)
	results := make([]*tensor.Matrix, 4)
	var mu sync.Mutex
	RunParallel(4, func(dev int) {
		m := tensor.New(2, 2)
		for i := range m.Data {
			m.Data[i] = float32(dev + 1)
		}
		r := c.AllReduce(dev, device.StageTrain, m, 0)
		mu.Lock()
		results[dev] = r
		mu.Unlock()
	})
	for dev, r := range results {
		for _, v := range r.Data {
			if v != 10 { // 1+2+3+4
				t.Errorf("dev %d allreduce = %v, want 10", dev, v)
			}
		}
	}
	// Bitwise identical across devices (same summation order).
	for dev := 1; dev < 4; dev++ {
		if results[dev].MaxAbsDiff(results[0]) != 0 {
			t.Error("allreduce results differ across devices")
		}
	}
}

func TestAllGather(t *testing.T) {
	p := hardware.WithDevices(hardware.SingleMachine8GPU(), 1, 3)
	c, _ := newTestComm(p)
	var mu sync.Mutex
	got := make([][]Payload, 3)
	RunParallel(3, func(dev int) {
		in := c.AllGather(dev, device.StageBuild, Payload{Ints: []int32{int32(dev)}})
		mu.Lock()
		got[dev] = in
		mu.Unlock()
	})
	for dev := 0; dev < 3; dev++ {
		for j := 0; j < 3; j++ {
			if got[dev][j].Ints[0] != int32(j) {
				t.Errorf("dev %d gathered %d from slot %d", dev, got[dev][j].Ints[0], j)
			}
		}
	}
}

func TestSequentialCollectivesNoDeadlock(t *testing.T) {
	p := hardware.WithDevices(hardware.SingleMachine8GPU(), 1, 8)
	c, _ := newTestComm(p)
	RunParallel(8, func(dev int) {
		for it := 0; it < 50; it++ {
			outs := make([]Payload, 8)
			for j := range outs {
				outs[j] = Payload{Bytes: 1}
			}
			c.AllToAll(dev, device.StageShuffle, outs)
			c.AllGather(dev, device.StageShuffle, Payload{Bytes: 1})
			c.AllReduce(dev, device.StageShuffle, nil, 64)
			c.Barrier(dev)
		}
	})
}

func TestPayloadSize(t *testing.T) {
	m := tensor.New(3, 4)
	pl := Payload{Mat: m, Ints: []int32{1, 2}, Bytes: 10}
	if got := pl.SizeBytes(); got != 48+8+10 {
		t.Errorf("SizeBytes = %d, want 66", got)
	}
}

func TestMeasureProfile(t *testing.T) {
	p := hardware.SingleMachine8GPU()
	prof := MeasureProfile(p)
	if prof.UVAReadBps != p.Bandwidth[hardware.LinkPCIe] {
		t.Error("UVA speed wrong")
	}
	if prof.PeerReadBps != 0 {
		t.Error("no-NVLink platform should have zero peer speed")
	}
	// AllToAll on one PCIe machine: effective speed below raw PCIe.
	if prof.AllToAllBps <= 0 || prof.AllToAllBps > p.Bandwidth[hardware.LinkPCIe] {
		t.Errorf("AllToAllBps = %v out of range", prof.AllToAllBps)
	}
	if prof.AllReduceBps <= 0 {
		t.Error("AllReduceBps not measured")
	}

	dist := hardware.FourMachines4GPU()
	dprof := MeasureProfile(dist)
	if dprof.AllToAllBps >= prof.AllToAllBps {
		t.Errorf("distributed alltoall %v not slower than single machine %v",
			dprof.AllToAllBps, prof.AllToAllBps)
	}
	if dprof.RemoteReadBps >= dprof.UVAReadBps {
		t.Error("remote read should be slower than UVA")
	}

	nv := hardware.SingleMachine8GPUNVLink()
	if MeasureProfile(nv).PeerReadBps == 0 {
		t.Error("NVLink platform should report peer speed")
	}
}

func TestDeviceMemoryAccounting(t *testing.T) {
	g := device.NewGroup(hardware.WithDevices(hardware.SingleMachine8GPU(), 1, 2))
	d := g.Devices[0]
	d.Alloc(10 * hardware.GB)
	if d.OOM() {
		t.Error("10GB on 16GB device flagged OOM")
	}
	d.Alloc(10 * hardware.GB)
	if !d.OOM() {
		t.Error("20GB on 16GB device not flagged OOM")
	}
	if !g.AnyOOM() {
		t.Error("group OOM not propagated")
	}
	d.Free(20 * hardware.GB)
	if d.MemUsed() != 0 {
		t.Error("Free accounting wrong")
	}
}

func TestStageMaxAndReset(t *testing.T) {
	g := device.NewGroup(hardware.WithDevices(hardware.SingleMachine8GPU(), 1, 2))
	g.Devices[0].Charge(device.StageTrain, 1)
	g.Devices[1].Charge(device.StageTrain, 3)
	if g.StageMax().At(device.StageTrain) != 3 {
		t.Error("StageMax wrong")
	}
	if g.Devices[1].TotalElapsed() != 3 {
		t.Error("TotalElapsed wrong")
	}
	g.ResetClocks()
	if g.StageMax() != (device.Clock{}) {
		t.Error("ResetClocks failed")
	}
}
