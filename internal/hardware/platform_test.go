package hardware

import "testing"

func TestPresetsValidate(t *testing.T) {
	for _, p := range []*Platform{SingleMachine8GPU(), FourMachines4GPU(), SingleMachine8GPUNVLink()} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestTopologyHelpers(t *testing.T) {
	p := FourMachines4GPU()
	if p.NumDevices() != 16 {
		t.Errorf("NumDevices = %d, want 16", p.NumDevices())
	}
	if p.MachineOf(0) != 0 || p.MachineOf(4) != 1 || p.MachineOf(15) != 3 {
		t.Error("MachineOf wrong")
	}
	if !p.SameMachine(0, 3) || p.SameMachine(3, 4) {
		t.Error("SameMachine wrong")
	}
	if p.InterconnectKind(0, 1) != LinkPCIe {
		t.Error("intra-machine link should be PCIe without NVLink")
	}
	if p.InterconnectKind(0, 5) != LinkNetwork {
		t.Error("cross-machine link should be network")
	}
	nv := SingleMachine8GPUNVLink()
	if nv.InterconnectKind(0, 1) != LinkNVLink {
		t.Error("NVLink platform should use NVLink intra-machine")
	}
}

func TestTransferTime(t *testing.T) {
	p := SingleMachine8GPU()
	if got := p.TransferTime(LinkPCIe, 0, 1); got != 0 {
		t.Errorf("zero bytes cost %v", got)
	}
	one := p.TransferTime(LinkPCIe, 12_000_000_000, 1)
	if one < 1.0 || one > 1.01 {
		t.Errorf("12GB over 12GB/s PCIe = %v s, want ~1", one)
	}
	// Network bandwidth is shared across concurrent devices.
	solo := p.TransferTime(LinkNetwork, 1e9, 1)
	shared := p.TransferTime(LinkNetwork, 1e9, 4)
	if shared < 3.5*solo {
		t.Errorf("4-way shared network %v not ~4x solo %v", shared, solo)
	}
}

func TestComputeTimes(t *testing.T) {
	p := SingleMachine8GPU()
	if p.DenseTime(4e12) < 0.99 || p.DenseTime(4e12) > 1.01 {
		t.Error("DenseTime calibration off")
	}
	if p.SparseTime(p.SparseFLOPS) != 1 {
		t.Error("SparseTime calibration off")
	}
	if p.SampleTime(int64(p.SampleEdgesPerSec)) != 1 {
		t.Error("SampleTime calibration off")
	}
}

func TestWithHelpers(t *testing.T) {
	p := SingleMachine8GPU()
	d := WithDevices(p, 2, 2)
	if d.NumDevices() != 4 || p.NumDevices() != 8 {
		t.Error("WithDevices must copy")
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	p := SingleMachine8GPU()
	bad := *p
	bad.DefaultCacheBytes = bad.GPUMemBytes + 1
	if err := bad.Validate(); err == nil {
		t.Error("cache > GPU memory accepted")
	}
	bad2 := *p
	bad2.Machines = 0
	if err := bad2.Validate(); err == nil {
		t.Error("zero machines accepted")
	}
}
