package device

import (
	"sync"
	"testing"

	"repro/internal/hardware"
)

func TestNewGroupTopology(t *testing.T) {
	g := NewGroup(hardware.FourMachines4GPU())
	if len(g.Devices) != 16 {
		t.Fatalf("got %d devices", len(g.Devices))
	}
	if g.Devices[5].Machine != 1 || g.Devices[5].ID != 5 {
		t.Errorf("device 5 = %+v", g.Devices[5])
	}
}

func TestChargeConcurrent(t *testing.T) {
	g := NewGroup(hardware.SingleMachine8GPU())
	d := g.Devices[0]
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.Charge(StageLoad, 0.001)
		}()
	}
	wg.Wait()
	if e := d.Clock().At(StageLoad); e < 0.0999 || e > 0.1001 {
		t.Errorf("concurrent charges lost: %v", e)
	}
}

func TestMemoryLifecycle(t *testing.T) {
	g := NewGroup(hardware.SingleMachine8GPU())
	d := g.Devices[0]
	d.Alloc(100)
	d.Alloc(200)
	if d.MemUsed() != 300 {
		t.Errorf("MemUsed = %d", d.MemUsed())
	}
	d.Free(300)
	if d.MemUsed() != 0 || d.OOM() {
		t.Error("free accounting wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("negative memory did not panic")
		}
	}()
	d.Free(1)
}

func TestOOMSticky(t *testing.T) {
	g := NewGroup(hardware.SingleMachine8GPU())
	d := g.Devices[0]
	d.Alloc(d.MemUsed() + 17*hardware.GB)
	if !d.OOM() {
		t.Fatal("no OOM at 17GB on 16GB device")
	}
	d.Free(17 * hardware.GB)
	if !d.OOM() {
		t.Error("OOM flag must be sticky (the overflow happened)")
	}
}

func TestStageMaxAcrossDevices(t *testing.T) {
	g := NewGroup(hardware.WithDevices(hardware.SingleMachine8GPU(), 1, 3))
	g.Devices[0].Charge(StageTrain, 1)
	g.Devices[1].Charge(StageTrain, 5)
	g.Devices[2].Charge(StageTrain, 3)
	g.Devices[2].Charge(StageLoad, 9)
	if mx := g.StageMax(); mx.At(StageTrain) != 5 || mx.At(StageLoad) != 9 || mx.At(StageSample) != 0 {
		t.Errorf("StageMax = %v", mx)
	}
}

// TestClockSlots checks that slot i of a Clock is Stages[i], that a
// name outside Stages is charged nowhere, and that Sub, ComputeElapsed
// and TotalElapsed read the slots they name.
func TestClockSlots(t *testing.T) {
	d := NewGroup(hardware.SingleMachine8GPU()).Devices[0]
	for i, s := range Stages {
		d.ResetClock()
		d.Charge(s, 1)
		var want Clock
		want[i] = 1
		if got := d.Clock(); got != want || got.At(s) != 1 || StageNames()[i] != string(s) {
			t.Errorf("charging %s: clock %v, want %v", s, got, want)
		}
	}
	d.ResetClock()
	d.Charge("trian", 1)
	if d.Clock() != (Clock{}) {
		t.Errorf("a name outside Stages opened a bucket: %v", d.Clock())
	}
	d.Charge(StageSample, 1)
	before := d.Clock()
	d.Charge(StageLoad, 2)
	d.Charge(StageTrain, 4)
	if got := d.Clock().Sub(before); got.At(StageLoad) != 2 || got.At(StageTrain) != 4 || got.At(StageSample) != 0 {
		t.Errorf("Sub = %v", got)
	}
	if d.TotalElapsed() != 7 || d.ComputeElapsed() != 6 {
		t.Errorf("TotalElapsed = %v, ComputeElapsed = %v", d.TotalElapsed(), d.ComputeElapsed())
	}
}
