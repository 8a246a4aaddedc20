package comm

import (
	"fmt"

	"repro/internal/hardware"
	"repro/internal/tensor"
)

// ChunkCodec compresses one float32 chunk of a ring allreduce for the
// wire. Implementations live in package transport (fp16, int8) so the
// primitive encoders sit next to the rest of the wire format; comm only
// needs the contract. A codec must be deterministic: EncodedLen is
// exact (not an upper bound) so the timing model and the data plane
// agree on wire bytes, and EncodeChunk/DecodeChunk must produce the
// same bytes/values on every rank for the same input.
type ChunkCodec interface {
	// ChunkID identifies the codec on the wire (CompressedChunk.Codec).
	ChunkID() uint8
	// Name is the human-readable codec name ("fp16", "int8").
	Name() string
	// EncodedLen returns the exact encoded size of n float32 values.
	EncodedLen(n int) int
	// EncodeChunk writes src into dst; len(dst) == EncodedLen(len(src)).
	EncodeChunk(dst []byte, src []float32)
	// DecodeChunk recovers len(dst) values from src.
	DecodeChunk(dst []float32, src []byte) error
}

// CompressedChunk is a codec-encoded float32 vector riding a Payload's
// Data slot between ring neighbours. Package transport registers its
// wire codec (data id 5) so it crosses the TCP backend; on the channel
// backend it moves by reference like any payload.
type CompressedChunk struct {
	// Codec is the ChunkCodec.ChunkID that produced B.
	Codec uint8
	// N is the element count B decodes to.
	N int
	// B holds the encoded bytes.
	B []byte
}

// ringState is per-rank ring scratch, touched only by goroutines of its
// own rank and never concurrently (the engine serializes its gradient
// sync goroutine against the worker's own collectives).
//
// acc is double-buffered: chunks of the working buffer are sent by
// reference on the channel backend, and a neighbour may still be
// reading this rank's final forwarded chunk when RingAllReduceData
// returns. Alternating buffers call-to-call makes reuse safe: before
// buffer A is written again (two calls later), this rank has completed
// a full intervening ring — whose receive chain reaches back through
// every peer's sends and therefore happens-after the successor finished
// reading A.
type ringState struct {
	acc    [2][]float32
	cur    int
	dec    []float32       // decode scratch for compressed chunks
	hdrs   []tensor.Matrix // rotating send headers (uncompressed chunks)
	hdrIdx int
}

// ringFor returns (lazily creating) dev's ring scratch with both
// accumulation buffers grown to at least elems. Lazy creation is safe:
// c.ring[dev] is only touched from dev's own goroutines.
func (c *Comm) ringFor(dev, elems int) *ringState {
	rs := c.ring[dev]
	if rs == nil {
		// n+1 headers: a sent header may be read by the successor until it
		// has processed the payload, which the ring's hop-by-hop
		// happens-before chain only guarantees n sends later.
		rs = &ringState{hdrs: make([]tensor.Matrix, c.n+1)}
		c.ring[dev] = rs
	}
	for i := range rs.acc {
		if len(rs.acc[i]) < elems {
			rs.acc[i] = make([]float32, elems)
		}
	}
	return rs
}

// chunkBounds splits elems into n ring chunks: bounds[i] is chunk i's
// start offset, bounds[n] == elems. The first elems%n chunks get one
// extra element. Every rank computes identical bounds, which fixes the
// summation grouping (and therefore the result bits) globally.
func chunkBounds(elems, n int) []int {
	bounds := make([]int, n+1)
	base, rem := elems/n, elems%n
	off := 0
	for i := 0; i < n; i++ {
		bounds[i] = off
		off += base
		if i < rem {
			off++
		}
	}
	bounds[n] = off
	return bounds
}

// allReduceModel is the single source of truth for what one allreduce
// of elems float32 values costs: simulated seconds, modeled wire bytes
// per rank (ring: 2·(C-1)/C of the encoded volume), and the link kind
// charged. rawBytes is the uncompressed wire size (callers pass the
// exact byte count so accounting-mode charges with odd sizes stay
// bit-identical to the pre-ring formula); a codec replaces it with the
// summed encoded chunk sizes.
func (c *Comm) allReduceModel(elems int, rawBytes int64, codec ChunkCodec) (secs float64, wire int64, kind hardware.LinkKind) {
	p := c.Group.Platform
	ringBW := p.Bandwidth[hardware.LinkPCIe]
	if p.HasNVLink {
		ringBW = p.Bandwidth[hardware.LinkNVLink]
	}
	kind = hardware.LinkPCIe
	if p.Machines > 1 {
		if nb := p.Bandwidth[hardware.LinkNetwork]; nb < ringBW {
			ringBW = nb
			kind = hardware.LinkNetwork
		}
	}
	enc := float64(rawBytes)
	if codec != nil {
		bounds := chunkBounds(elems, c.n)
		var total int
		for i := 0; i < c.n; i++ {
			total += codec.EncodedLen(bounds[i+1] - bounds[i])
		}
		enc = float64(total)
	}
	wire = int64(2 * enc * float64(c.n-1) / float64(c.n))
	secs = p.Latency[kind]*float64(2*(c.n-1)) + float64(wire)/ringBW
	return secs, wire, kind
}

// AllReduceModel returns the simulated seconds, modeled wire bytes and
// link kind the ring model charges for one allreduce of elems float32
// values under codec (nil = fp32). The engine's bucketed gradient sync
// uses it to charge overlapped bucket allreduces itself — the data
// plane (RingAllReduceData) never touches the clocks.
func (c *Comm) AllReduceModel(elems int, codec ChunkCodec) (secs float64, wire int64, kind hardware.LinkKind) {
	return c.allReduceModel(elems, int64(elems)*4, codec)
}

// RingAllReduceData sums data element-wise across all ranks in place —
// the pure data plane, with no simulated time charged (callers account
// via AllReduceModel). The result is identical, bit for bit, on every
// rank: chunk boundaries and the ring summation order are fixed by rank
// position, every rank reduces each chunk in the same grouping, and
// under a codec every rank decodes the chunk owner's single final
// encoding. Ranks must call it in lockstep like any collective.
func (c *Comm) RingAllReduceData(dev int, data []float32, codec ChunkCodec) {
	if c.n == 1 {
		return
	}
	rs := c.ringFor(dev, len(data))
	acc := rs.acc[rs.cur][:len(data)]
	rs.cur = 1 - rs.cur
	copy(acc, data)
	bounds := chunkBounds(len(data), c.n)
	if codec == nil {
		c.ringReduceF32(dev, rs, acc, bounds)
	} else {
		c.ringReduceCodec(dev, rs, acc, bounds, codec)
	}
	copy(data, acc)
}

// ringReduceF32 runs the uncompressed ring on acc. Chunks are sent as
// zero-copy views into acc: the channel backend delivers them by
// reference, and the ring's lockstep hop order guarantees a receiver
// has consumed a chunk before this rank mutates it again (see
// ringState's reuse argument for the cross-call case).
func (c *Comm) ringReduceF32(dev int, rs *ringState, acc []float32, bounds []int) {
	n := c.n
	succ, pred := (dev+1)%n, (dev+n-1)%n
	// Reduce-scatter: after step s every rank has added its predecessor
	// chain's partial for chunk (dev-s-1); chunk (dev+1) ends fully
	// reduced here in the order x_{dev+1} + (x_dev + (... + x_{dev+2})).
	for s := 0; s < n-1; s++ {
		sc := ((dev-s)%n + n) % n
		rc := ((dev-s-1)%n + n) % n
		c.ringSendF32(rs, dev, succ, acc[bounds[sc]:bounds[sc+1]])
		in := c.tr.Recv(dev, pred)
		addInto(acc[bounds[rc]:bounds[rc+1]], in.Mat.Data)
	}
	// Allgather: circulate each owner's reduced chunk around the ring.
	for s := 0; s < n-1; s++ {
		sc := ((dev+1-s)%n + n) % n
		rc := ((dev-s)%n + n) % n
		c.ringSendF32(rs, dev, succ, acc[bounds[sc]:bounds[sc+1]])
		in := c.tr.Recv(dev, pred)
		copy(acc[bounds[rc]:bounds[rc+1]], in.Mat.Data)
	}
}

// ringReduceCodec runs the compressed ring: each hop decodes the
// received chunk, accumulates in fp32, and re-encodes for the next hop
// (partial sums are requantized per hop; see DESIGN decision 18 for
// the error story). The chunk owner encodes the final value once and
// immediately decodes it back into acc, so the bytes circulating in the
// allgather and the owner's own copy agree exactly — every rank ends
// with values decoded from the same encoding. Encode buffers are
// allocated per send: the channel backend forwards them by reference
// around the whole ring, so they are never reused.
func (c *Comm) ringReduceCodec(dev int, rs *ringState, acc []float32, bounds []int, codec ChunkCodec) {
	n := c.n
	succ, pred := (dev+1)%n, (dev+n-1)%n
	for s := 0; s < n-1; s++ {
		sc := ((dev-s)%n + n) % n
		lo, hi := bounds[sc], bounds[sc+1]
		enc := make([]byte, codec.EncodedLen(hi-lo))
		codec.EncodeChunk(enc, acc[lo:hi])
		c.tr.Send(dev, succ, Payload{
			Data:  &CompressedChunk{Codec: codec.ChunkID(), N: hi - lo, B: enc},
			Bytes: int64(len(enc)),
		})
		in := chunkOf(c.tr.Recv(dev, pred))
		rc := ((dev-s-1)%n + n) % n
		rlo, rhi := bounds[rc], bounds[rc+1]
		if len(rs.dec) < rhi-rlo {
			rs.dec = make([]float32, rhi-rlo)
		}
		if err := codec.DecodeChunk(rs.dec[:rhi-rlo], in.B); err != nil {
			panic(fmt.Sprintf("comm: ring chunk decode (codec %s): %v", codec.Name(), err))
		}
		addInto(acc[rlo:rhi], rs.dec[:rhi-rlo])
	}
	oc := (dev + 1) % n
	lo, hi := bounds[oc], bounds[oc+1]
	final := make([]byte, codec.EncodedLen(hi-lo))
	codec.EncodeChunk(final, acc[lo:hi])
	if err := codec.DecodeChunk(acc[lo:hi], final); err != nil {
		panic(fmt.Sprintf("comm: ring chunk decode (codec %s): %v", codec.Name(), err))
	}
	cur := &CompressedChunk{Codec: codec.ChunkID(), N: hi - lo, B: final}
	for s := 0; s < n-1; s++ {
		c.tr.Send(dev, succ, Payload{Data: cur, Bytes: int64(len(cur.B))})
		cur = chunkOf(c.tr.Recv(dev, pred))
		rc := ((dev-s)%n + n) % n
		rlo, rhi := bounds[rc], bounds[rc+1]
		if err := codec.DecodeChunk(acc[rlo:rhi], cur.B); err != nil {
			panic(fmt.Sprintf("comm: ring chunk decode (codec %s): %v", codec.Name(), err))
		}
	}
}

// ringSendF32 ships a float32 chunk to the successor as a matrix view.
// Headers rotate through a fixed pool sized n+1 (see ringFor).
func (c *Comm) ringSendF32(rs *ringState, src, dst int, chunk []float32) {
	h := &rs.hdrs[rs.hdrIdx%len(rs.hdrs)]
	rs.hdrIdx++
	h.Rows, h.Cols, h.Data = 1, len(chunk), chunk
	c.tr.Send(src, dst, Payload{Mat: h})
}

// chunkOf extracts the compressed chunk a ring neighbour sent.
func chunkOf(p Payload) *CompressedChunk {
	ch, ok := p.Data.(*CompressedChunk)
	if !ok {
		panic(fmt.Sprintf("comm: ring expected CompressedChunk payload, got %T", p.Data))
	}
	return ch
}

func addInto(dst, src []float32) {
	if len(src) == 0 {
		return // empty ring chunk (fewer elements than ranks)
	}
	_ = dst[len(src)-1]
	for i, v := range src {
		dst[i] += v
	}
}
