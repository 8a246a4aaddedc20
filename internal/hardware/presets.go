package hardware

// Presets mirroring the paper's evaluation platforms (§5.1). Rates are
// effective (not peak) figures for the paper's hardware: NVIDIA T4
// GPUs on PCIe 3.0 x16, machines linked by 100 Gbps Ethernet.

// GB is 1e9 bytes.
const GB = 1e9

func baseT4() Platform {
	p := Platform{
		GPUMemBytes:       16 * GB,
		DefaultCacheBytes: 4 * GB,
	}
	p.Bandwidth[LinkGPUMem] = 300 * GB // device memory bandwidth
	p.Bandwidth[LinkNVLink] = 40 * GB  // only used when HasNVLink
	p.Bandwidth[LinkPCIe] = 12 * GB    // PCIe 3.0 x16 effective
	p.Bandwidth[LinkNetwork] = 11 * GB // 100 Gbps effective, per machine
	p.Latency[LinkGPUMem] = 2e-6
	p.Latency[LinkNVLink] = 5e-6
	p.Latency[LinkPCIe] = 15e-6
	p.Latency[LinkNetwork] = 60e-6
	p.DenseFLOPS = 4e12        // T4 fp32 effective
	p.SparseFLOPS = 6e10       // memory-bound segment aggregation
	p.SampleEdgesPerSec = 25e7 // GPU-based sampling
	return p
}

// SingleMachine8GPU is the paper's single-machine platform: one
// g4dn.metal-style host with 8 T4 GPUs on PCIe 3.0, no NVLink.
func SingleMachine8GPU() *Platform {
	p := baseT4()
	p.Name = "single-machine-8gpu"
	p.Machines = 1
	p.GPUsPerMachine = 8
	return &p
}

// FourMachines4GPU is the paper's distributed platform: 4 machines with
// 4 GPUs each, connected by 100 Gbps Ethernet.
func FourMachines4GPU() *Platform {
	p := baseT4()
	p.Name = "four-machines-4gpu"
	p.Machines = 4
	p.GPUsPerMachine = 4
	return &p
}

// SingleMachine8GPUNVLink is an extension platform with NVSwitch-style
// peer-GPU links, used to study how fast interconnects shift the
// strategy trade-offs.
func SingleMachine8GPUNVLink() *Platform {
	p := baseT4()
	p.Name = "single-machine-8gpu-nvlink"
	p.Machines = 1
	p.GPUsPerMachine = 8
	p.HasNVLink = true
	return &p
}

// WithDevices returns a copy of p with a different topology, keeping
// all rate constants.
func WithDevices(p *Platform, machines, gpusPerMachine int) *Platform {
	cp := *p
	cp.Machines = machines
	cp.GPUsPerMachine = gpusPerMachine
	return &cp
}
