package engine

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/device"
	"repro/internal/nn"
	"repro/internal/obs"
)

// gradSync is the bucketed, backward-overlapped gradient
// synchronization (DDP-style). The model's parameters are grouped into
// per-layer buckets in reverse layer order (nn.Model.GradBuckets); as
// each layer's backward completes, the worker launches that bucket's
// ring allreduce on a per-rank sync goroutine, so the ring transfers
// run while the remaining (lower) layers are still computing.
//
// Concurrency contract: the sync goroutine issues ONLY ring data-plane
// transfers (comm.RingAllReduceData) — it never touches the simulated
// clocks or the span tracks. The worker goroutine never
// issues collectives of its own while bucket transfers are in flight:
// before any layer whose placement's backward communicates
// (placement.backwardIsLocal() == false), the worker drains the
// in-flight buckets first. That keeps every rank's transport-operation
// order identical — the lockstep invariant all collectives rely on —
// and preserves comm's rule that a rank's ring scratch is never
// touched concurrently.
//
// Timing: the data plane is free; the worker charges the schedule at
// join time. Bucket i's transfer starts at max(launch[i], end[i-1])
// on the serialized compute clock (launch[i] is the clock when its
// layer's backward finished — transfers overlap compute but serialize
// against each other on the ring), and only the tail that outlives
// the backward pass — max(0, end[last] - clockAtJoin) — is charged to
// the train stage. Each bucket emits an "allreduce" span at its
// scheduled start, so the Chrome trace shows the buckets overlapping
// the device track's backward compute.
type gradSync struct {
	w     *worker
	codec comm.ChunkCodec

	buckets []*gradBucket
	// launchClk[i] is the device's compute clock (ComputeElapsed) when
	// bucket i was launched this step.
	launchClk []float64

	// reqs/acks carry bucket indices to/from the per-step sync
	// goroutine; done signals its exit. All are buffered so neither
	// side ever blocks on the other mid-ring, and they are allocated
	// once — the steady-state step is channel-allocation-free.
	reqs chan int
	acks chan int
	done chan struct{}
	sent int
	ackd int
	// scheduled/prevEnd track the per-step charging schedule: buckets
	// [0, scheduled) have been placed on the timeline, and prevEnd is
	// the scheduled finish of the last one (transfers serialize against
	// each other on the ring).
	scheduled int
	prevEnd   float64
}

// gradBucket is one layer's worth of parameters flattened for the ring.
type gradBucket struct {
	layer  int // model layer index (bucket order is reverse of this)
	params []*nn.Param
	flat   []float32
	// commSec/wire are the bucket's modeled allreduce cost
	// (comm.AllReduceModel), fixed for the run.
	commSec float64
	wire    int64
	// res holds the int8 error-feedback residual (DESIGN decision 18):
	// the quantization error of this rank's previous contribution,
	// added back before encoding the next one. enc/dq are the local
	// quantize/dequantize scratch that measures the error. Nil for
	// exact and fp16 codecs.
	res []float32
	enc []byte
	dq  []float32
}

// newGradSync builds the bucket layout for w's model replica. ef
// enables the per-bucket error-feedback residual (int8).
func newGradSync(w *worker, codec comm.ChunkCodec, ef bool) *gradSync {
	gs := &gradSync{w: w, codec: codec}
	for i, ps := range w.model.GradBuckets() {
		b := &gradBucket{layer: len(w.model.Layers) - 1 - i, params: ps}
		elems := 0
		for _, p := range ps {
			elems += len(p.G.Data)
		}
		b.flat = make([]float32, elems)
		b.commSec, b.wire = w.eng.Comm.AllReduceModel(elems, codec)
		if ef {
			b.res = make([]float32, elems)
			b.enc = make([]byte, codec.EncodedLen(elems))
			b.dq = make([]float32, elems)
		}
		gs.buckets = append(gs.buckets, b)
	}
	gs.launchClk = make([]float64, len(gs.buckets))
	gs.reqs = make(chan int, len(gs.buckets))
	gs.acks = make(chan int, len(gs.buckets))
	gs.done = make(chan struct{}, 1)
	return gs
}

// beginStep starts this step's sync goroutine. Every step launches
// every bucket exactly once, so the goroutine's work count is fixed.
func (gs *gradSync) beginStep() {
	gs.sent, gs.ackd = 0, 0
	gs.scheduled, gs.prevEnd = 0, 0
	go gs.run()
}

func (gs *gradSync) run() {
	for k := 0; k < len(gs.buckets); k++ {
		i := <-gs.reqs
		b := gs.buckets[i]
		gs.w.eng.Comm.RingAllReduceData(gs.w.dev.ID, b.flat, gs.codec)
		gs.acks <- i
	}
	gs.done <- struct{}{}
}

// launchLayer flattens layer's gradients into its bucket, applies
// error feedback, snapshots the launch clock, and hands the bucket to
// the sync goroutine. Called right after that layer's backward has
// accumulated its parameter gradients.
func (gs *gradSync) launchLayer(layer int) {
	i := len(gs.buckets) - 1 - layer
	b := gs.buckets[i]
	off := 0
	for _, p := range b.params {
		copy(b.flat[off:], p.G.Data)
		off += len(p.G.Data)
	}
	if b.res != nil {
		// u = g + e, then e' = u - deQ(Q(u)): the error of quantizing
		// this rank's own contribution, measured against a whole-bucket
		// encoding (the wire additionally requantizes per ring chunk and
		// per hop; that error is not fed back — DESIGN decision 18).
		for j, r := range b.res {
			b.flat[j] += r
		}
		gs.codec.EncodeChunk(b.enc, b.flat)
		if err := gs.codec.DecodeChunk(b.dq, b.enc); err != nil {
			panic(fmt.Sprintf("engine: error-feedback decode (%s): %v", gs.codec.Name(), err))
		}
		for j := range b.res {
			b.res[j] = b.flat[j] - b.dq[j]
		}
	}
	gs.launchClk[i] = gs.w.dev.ComputeElapsed()
	gs.sent++
	gs.reqs <- i
}

// drainInFlight blocks until every launched bucket's ring has
// completed, quiescing the sync goroutine, and settles their charges —
// the worker's next collective is then correctly charged as starting
// after the drained transfers. Required before the worker issues
// collectives of its own (a communicating layer-1 backward): two
// goroutines of one rank must never have transport operations in
// flight at once.
func (gs *gradSync) drainInFlight() {
	for gs.ackd < gs.sent {
		<-gs.acks
		gs.ackd++
	}
	gs.settle()
}

// settle places the launched-but-unscheduled buckets on the timeline —
// each starts at max(its launch clock, the previous bucket's end) —
// emits their spans, and charges the exposed tail
// (scheduled end beyond the current compute clock) to the train stage.
// Called at every join point, so simulated time never runs backwards
// relative to collectives the worker issues afterwards.
func (gs *gradSync) settle() {
	w := gs.w
	c := w.eng.Comm
	var track *obs.Track // nil track: Emit is a no-op
	if c.Spans != nil {
		track = c.Spans[w.dev.ID]
	}
	base := 0.0
	if c.SpanBase != nil {
		base = *c.SpanBase
	}
	for ; gs.scheduled < gs.sent; gs.scheduled++ {
		b := gs.buckets[gs.scheduled]
		start := gs.launchClk[gs.scheduled]
		if start < gs.prevEnd {
			start = gs.prevEnd // transfers serialize on the ring
		}
		track.Emit("allreduce", b.layer, base+start, b.commSec, b.wire)
		gs.prevEnd = start + b.commSec
		w.stats.GradCommSec += b.commSec
	}
	if exposed := gs.prevEnd - w.dev.ComputeElapsed(); exposed > 0 {
		w.dev.Charge(device.StageTrain, exposed)
		w.stats.GradExposedSec += exposed
	}
}

// finish waits for all buckets, settles the overlapped schedule, and
// writes the reduced gradients back. After it returns, every peer is
// provably past its backward pass: completing the final bucket's ring
// means every rank sent its last ring hop, which happens after that
// rank launched its final bucket, which follows its backward — the
// causal guarantee computeStep's buffer recycling relies on.
func (gs *gradSync) finish() {
	for gs.ackd < len(gs.buckets) {
		<-gs.acks
		gs.ackd++
	}
	<-gs.done
	gs.settle()

	for _, b := range gs.buckets {
		off := 0
		for _, p := range b.params {
			copy(p.G.Data, b.flat[off:off+len(p.G.Data)])
			off += len(p.G.Data)
		}
	}
}
