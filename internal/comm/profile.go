package comm

import (
	"repro/internal/device"
	"repro/internal/hardware"
)

// Profile holds the measured effective speeds of the communication
// operators on a platform — the output of the paper's Prepare-step
// bandwidth trials, consumed by the cost models. All values are
// per-device effective bytes/second: the time for one device to push V
// bytes through the operator is V / speed.
type Profile struct {
	// AllToAllBps is the effective speed of the sparse all-to-all used
	// by SNP/DNP shuffles (uniform traffic pattern over the topology).
	AllToAllBps float64
	// AllGatherBps is the effective wire speed of the broadcast used by
	// NFP's AllBroadcast: the time for one device to broadcast V bytes
	// to C-1 peers is (C-1)·V / AllGatherBps, i.e. the divisor applies
	// to bytes-on-the-wire, matching the engine's volume counters.
	AllGatherBps float64
	// AllReduceBps is the effective speed of ring allreduce for a
	// V-byte tensor.
	AllReduceBps float64
	// UVAReadBps is GPU reads from local CPU memory over PCIe.
	UVAReadBps float64
	// RemoteReadBps is GPU reads from a remote machine's CPU memory.
	RemoteReadBps float64
	// PeerReadBps is GPU reads from a peer GPU cache (NVLink), zero if
	// the platform has no fast peer links.
	PeerReadBps float64
	// GPUReadBps is local cache-hit bandwidth.
	GPUReadBps float64
	// AllToAllCallSec / AllGatherCallSec are the fixed per-call
	// latencies of the collectives, measured with near-empty payloads.
	// At the reproduction's scaled-down payload sizes they are a
	// non-negligible share of shuffle time, so the cost models charge
	// them per collective call.
	AllToAllCallSec  float64
	AllGatherCallSec float64
	// ReadCallSec is the per-step feature-read issue latency (one
	// batched gather per device per step).
	ReadCallSec float64
}

// trialBytes is the per-device payload used by the bandwidth trials;
// large enough that per-message latency is amortized realistically.
const trialBytes = 16 << 20

// MeasureProfile runs one bandwidth trial per operator through the
// communication fabric (accounting mode: no real floats move) and
// derives effective speeds from the simulated clocks.
func MeasureProfile(p *hardware.Platform) *Profile {
	prof := &Profile{
		UVAReadBps:  p.Bandwidth[hardware.LinkPCIe],
		GPUReadBps:  p.Bandwidth[hardware.LinkGPUMem],
		ReadCallSec: p.Latency[hardware.LinkPCIe] + p.Latency[hardware.LinkGPUMem],
	}
	// Remote reads traverse the machine NIC shared by its GPUs.
	prof.RemoteReadBps = p.Bandwidth[hardware.LinkNetwork] / float64(p.GPUsPerMachine)
	if p.HasNVLink {
		prof.PeerReadBps = p.Bandwidth[hardware.LinkNVLink]
	}

	n := p.NumDevices()
	if n == 1 {
		// Degenerate single-device group: collectives are free.
		prof.AllToAllBps = p.Bandwidth[hardware.LinkGPUMem]
		prof.AllGatherBps = p.Bandwidth[hardware.LinkGPUMem]
		prof.AllReduceBps = p.Bandwidth[hardware.LinkGPUMem]
		return prof
	}

	// AllToAll trial: uniform traffic, trialBytes per device total.
	g := device.NewGroup(p)
	c := New(g)
	per := int64(trialBytes / (n - 1))
	RunParallel(n, func(dev int) {
		outs := make([]Payload, n)
		for j := range outs {
			if j != dev {
				outs[j] = Payload{Bytes: per}
			}
		}
		c.AllToAll(dev, device.StageTrain, outs)
	})
	prof.AllToAllBps = float64(per*int64(n-1)) / g.StageMax().At(device.StageTrain)

	// AllGather trial: each device broadcasts trialBytes, putting
	// (n-1)*trialBytes on the wire per device.
	g2 := device.NewGroup(p)
	c2 := New(g2)
	RunParallel(n, func(dev int) {
		c2.AllGather(dev, device.StageTrain, Payload{Bytes: trialBytes})
	})
	prof.AllGatherBps = float64(int64(n-1)*trialBytes) / g2.StageMax().At(device.StageTrain)

	// AllReduce trial on a trialBytes tensor.
	g3 := device.NewGroup(p)
	c3 := New(g3)
	RunParallel(n, func(dev int) {
		c3.AllReduce(dev, device.StageTrain, nil, trialBytes)
	})
	prof.AllReduceBps = float64(trialBytes) / g3.StageMax().At(device.StageTrain)

	// Near-empty-payload trials isolate the per-call latencies. Both
	// run on one group, each charging its own stage; a charge depends
	// on the payload bytes alone, not on the clock it lands on.
	g4 := device.NewGroup(p)
	c4 := New(g4)
	RunParallel(n, func(dev int) {
		outs := make([]Payload, n)
		for j := range outs {
			if j != dev {
				outs[j] = Payload{Bytes: 1}
			}
		}
		c4.AllToAll(dev, device.StageBuild, outs)
		c4.AllGather(dev, device.StageShuffle, Payload{Bytes: 1})
	})
	lat := g4.StageMax()
	prof.AllToAllCallSec = lat.At(device.StageBuild)
	prof.AllGatherCallSec = lat.At(device.StageShuffle)
	return prof
}
