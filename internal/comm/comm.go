// Package comm implements the communication layer of the unified
// execution engine: the collectives the paper's strategies insert at
// DGL kernel barriers (AllToAll, AllBroadcast/AllGather, AllReduce) as
// message exchanges between device goroutines, with every payload's
// bytes charged to the simulated device clocks using the platform's
// link model. The volumes the cost models read are counted per worker
// by the engine (engine.WorkerStats); the collectives' spans carry the
// bytes each one moved.
//
// Collectives are synchronous: every device of the group must call the
// same sequence of collectives (the engine runs devices in lockstep per
// mini-batch step). The collectives run over a pluggable Transport
// (transport.go): on the default in-process backend payload matrices
// move by reference — the "wire" is a Go channel — while the TCP
// backend in package transport serializes them across real sockets
// between rank processes. Either way timing is charged as if the bytes
// crossed the platform's PCIe/NVLink/network links, so the planner's
// accounting is backend-independent.
package comm

import (
	"fmt"
	"sync"

	"repro/internal/device"
	"repro/internal/hardware"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// Payload is one message between devices. In accounting mode Mat and
// Ints are nil and only Bytes counts; in real mode Bytes adds to the
// encoded size of Mat/Ints (e.g. header overheads are ignored).
type Payload struct {
	Mat  *tensor.Matrix
	Ints []int32
	// Data carries an arbitrary structure (e.g. an encoded subgraph);
	// its wire size is NOT derived automatically — senders account for
	// it via Bytes.
	Data  any
	Bytes int64
}

// SizeBytes returns the accounted wire size.
func (p Payload) SizeBytes() int64 {
	s := p.Bytes + 4*int64(len(p.Ints))
	if p.Mat != nil {
		s += p.Mat.Bytes()
	}
	return s
}

// Comm connects the devices of one group. The collectives run over a
// Transport (see transport.go for the contract and the concurrency
// ownership rule): in-process channels by default, or a wire backend
// where each rank is its own OS process.
type Comm struct {
	Group *device.Group
	n     int
	tr    Transport
	// Spans, when non-nil, holds one observability track per device on
	// which every collective emits a span (operator name, bytes moved,
	// charged seconds). Spans[dev] is only touched from dev's own
	// goroutine. SpanBase, when non-nil, offsets span start times (the
	// engine advances it between epochs); it is only written while no
	// device goroutines run.
	Spans    []*obs.Track
	SpanBase *float64
	// ring holds per-rank ring-allreduce scratch; ring[dev] is only
	// touched from dev's own goroutines (see ringState).
	ring []*ringState
}

// New creates the communication fabric for a device group over the
// default in-process channel transport.
func New(g *device.Group) *Comm {
	return NewWithTransport(g, NewChanTransport(len(g.Devices)))
}

// NewWithTransport creates the communication fabric over an explicit
// transport whose ranks map to the group's device IDs. The timing
// model is unchanged — bytes are charged to the simulated clocks via
// the platform link model regardless of what physically carries them —
// so the planner's accounting stays comparable across backends; wire
// backends additionally expose their measured speeds for calibration
// (package transport).
func NewWithTransport(g *device.Group, tr Transport) *Comm {
	n := len(g.Devices)
	if tr.World() != n {
		panic(fmt.Sprintf("comm: transport world %d != group size %d", tr.World(), n))
	}
	return &Comm{Group: g, n: n, tr: tr, ring: make([]*ringState, n)}
}

// Transport returns the fabric the collectives run on.
func (c *Comm) Transport() Transport { return c.tr }

// NumDevices returns the group size.
func (c *Comm) NumDevices() int { return c.n }

// chargePairwise charges device dev for a pairwise exchange where
// sendTo[j]/recvFrom[j] bytes move between dev and each peer j. The
// device's link serializes its byte volume per link kind, but the
// per-message latencies of concurrent peer connections pipeline, so
// latency is charged once per link kind used; send and receive overlap
// (full duplex), so the charge is the max of the two directions.
func (c *Comm) chargePairwise(dev int, stage device.Stage, op string, sendTo, recvFrom []int64) {
	p := c.Group.Platform
	var sendBytes, recvBytes [4]int64 // indexed by hardware.LinkKind
	for j := 0; j < c.n; j++ {
		if j == dev {
			continue
		}
		kind := p.InterconnectKind(dev, j)
		sendBytes[kind] += sendTo[j]
		recvBytes[kind] += recvFrom[j]
	}
	dirTime := func(bytes [4]int64) float64 {
		var t float64
		for kind := hardware.LinkKind(0); int(kind) < len(bytes); kind++ {
			if bytes[kind] == 0 {
				continue
			}
			conc := 1
			if kind == hardware.LinkNetwork {
				conc = p.GPUsPerMachine // machine NIC shared by its GPUs
			}
			t += p.TransferTime(kind, bytes[kind], conc)
		}
		return t
	}
	t := dirTime(sendBytes)
	if rt := dirTime(recvBytes); rt > t {
		t = rt
	}
	var wire int64
	for kind := range sendBytes {
		wire += sendBytes[kind] + recvBytes[kind]
	}
	c.chargeWithSpan(dev, stage, op, t, wire)
}

// chargeWithSpan charges secs to the device's stage clock and, when
// observability is on, records the collective as a span on the
// device's comm track. The span sits on the device's compute-side
// serialized clock — the cumulative build/load/train/shuffle time when
// the collective started. Collectives only charge those stages, and
// they are owned serially by the device's compute goroutine, so the
// axis is strictly monotone and independent of how a concurrent
// prefetcher interleaves sample-clock charges.
func (c *Comm) chargeWithSpan(dev int, stage device.Stage, op string, secs float64, bytes int64) {
	d := c.Group.Devices[dev]
	if c.Spans == nil {
		d.Charge(stage, secs)
		return
	}
	start := d.ComputeElapsed()
	d.Charge(stage, secs)
	if c.SpanBase != nil {
		start += *c.SpanBase
	}
	c.Spans[dev].Emit(op, -1, start, secs, bytes)
}

// AnyTrue exchanges one boolean among all devices and returns their
// disjunction — the collective the engine uses to agree on context
// cancellation at step boundaries. Every device must call it at the
// same point; no simulated time is charged.
func (c *Comm) AnyTrue(dev int, v bool) bool {
	var b int64
	if v {
		b = 1
	}
	any := false
	for _, p := range c.AllGatherNoCharge(dev, Payload{Bytes: b}) {
		if p.Bytes != 0 {
			any = true
		}
	}
	return any
}

// AllToAll exchanges outs[j] (destined to device j) among all devices
// and returns the payloads received by dev (indexed by sender). The
// paper's strategies use it to ship subgraphs (SNP/DNP Shuffle) and
// hidden embeddings (Reshuffle).
func (c *Comm) AllToAll(dev int, stage device.Stage, outs []Payload) []Payload {
	in := c.AllToAllNoCharge(dev, outs)
	sendTo := make([]int64, c.n)
	recvFrom := make([]int64, c.n)
	for j := 0; j < c.n; j++ {
		if j != dev {
			sendTo[j], recvFrom[j] = outs[j].SizeBytes(), in[j].SizeBytes()
		}
	}
	c.chargePairwise(dev, stage, "alltoall", sendTo, recvFrom)
	return in
}

// AllGather broadcasts each device's payload to every other device
// (the paper's AllBroadcast used by NFP to share layer-1 computation
// graphs). Returns all payloads indexed by source device. The single
// payload is broadcast directly — no per-peer copies are materialized —
// but the charge math and the "alltoall" span are byte-identical to the
// AllToAll formulation this replaced.
func (c *Comm) AllGather(dev int, stage device.Stage, p Payload) []Payload {
	in := c.AllGatherNoCharge(dev, p)
	sendTo := make([]int64, c.n)
	recvFrom := make([]int64, c.n)
	sz := p.SizeBytes()
	for j := 0; j < c.n; j++ {
		if j != dev {
			sendTo[j], recvFrom[j] = sz, in[j].SizeBytes()
		}
	}
	c.chargePairwise(dev, stage, "alltoall", sendTo, recvFrom)
	return in
}

// AllReduce sums mat element-wise across all devices and returns the
// sum (identical, including float ordering, on every device). In
// accounting mode mat may be nil; bytes is then the tensor wire size.
// Timing follows the ring-allreduce model: 2·(C-1)/C · V over the
// slowest link on the ring — and since PR 9 the data plane actually
// moves those bytes (chunked reduce-scatter + allgather) instead of a
// full-mesh gather-then-sum.
func (c *Comm) AllReduce(dev int, stage device.Stage, mat *tensor.Matrix, bytes int64) *tensor.Matrix {
	return c.AllReduceCodec(dev, stage, mat, bytes, nil)
}

// AllReduceCodec is AllReduce with an optional chunk codec compressing
// the wire (nil = exact fp32). The returned matrix is locally owned
// (safe to Put without a barrier); mat is never shipped by reference
// and stays untouched. The data moves through the ring of
// RingAllReduceData, read from mat and written to the result; at
// world 1 the reduction degenerates to 0+mat, matching the pre-ring
// bits exactly (including -0 normalization).
func (c *Comm) AllReduceCodec(dev int, stage device.Stage, mat *tensor.Matrix, bytes int64, codec ChunkCodec) *tensor.Matrix {
	elems := int(bytes / 4)
	var result *tensor.Matrix
	if mat != nil {
		bytes, elems = mat.Bytes(), len(mat.Data)
		result = tensor.Get(mat.Rows, mat.Cols)
		if c.n == 1 {
			result.AddInPlace(mat)
		} else {
			c.ringAllReduce(dev, result.Data, mat.Data, codec)
		}
	}
	t, wire := c.allReduceModel(elems, bytes, codec)
	c.chargeWithSpan(dev, stage, "allreduce", t, wire)
	return result
}

// AllToAllNoCharge is AllToAll's data movement without the simulated
// charge: every send, then every receive. AllToAll charges on top of
// it; wire measurement (package transport), where the cost of interest
// is wall-clock, calls it directly.
func (c *Comm) AllToAllNoCharge(dev int, outs []Payload) []Payload {
	for j := 0; j < c.n; j++ {
		if j == dev {
			continue
		}
		c.tr.Send(dev, j, outs[j])
	}
	in := make([]Payload, c.n)
	in[dev] = outs[dev]
	for j := 0; j < c.n; j++ {
		if j == dev {
			continue
		}
		in[j] = c.tr.Recv(dev, j)
	}
	return in
}

// AllGatherNoCharge is AllGather's data movement without the
// simulated charge: the exchange behind AllGather and AnyTrue,
// the engine's RNG-cursor exchange and wire measurement (package
// transport). The payload goes out as one Send per peer, in ascending
// rank order.
func (c *Comm) AllGatherNoCharge(dev int, p Payload) []Payload {
	for j := 0; j < c.n; j++ {
		if j != dev {
			c.tr.Send(dev, j, p)
		}
	}
	in := make([]Payload, c.n)
	in[dev] = p
	for j := 0; j < c.n; j++ {
		if j == dev {
			continue
		}
		in[j] = c.tr.Recv(dev, j)
	}
	return in
}

// RunParallel launches fn once per device on its own goroutine and
// waits for all to finish — the engine's worker harness (the simulated
// analogue of the paper launching one DDP process per GPU).
func RunParallel(n int, fn func(dev int)) {
	var wg sync.WaitGroup
	for d := 0; d < n; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			fn(d)
		}(d)
	}
	wg.Wait()
}
