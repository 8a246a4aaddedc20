package engine

import (
	"repro/internal/graph"
	"repro/internal/sample"
	"repro/internal/transport"
)

// Wire codecs for the engine-internal structures the strategies ship
// through Payload.Data: NFP broadcasts layer-1 blocks, the routed
// strategies (SNP, DNP) exchange Permute requests. Registered
// in an init so every binary that links the engine — every aptrun rank
// — agrees on the (id, type, layout) pairs; the ids below are part of
// the wire format and must never be reused; ids 3 and 4 are retired.
//
// Both types are pointers and a typed nil must survive the trip, so
// each codec leads with a presence byte. graph.NodeID is an alias of
// int32, which is why node slices encode through the i32 primitives
// without conversion.

// Wire ids for Payload.Data types (see RegisterData).
const (
	wireDataBlock      = 1
	wireDataAdjRequest = 2
)

func init() {
	transport.RegisterData(wireDataBlock, (*sample.Block)(nil), transport.DataCodec{
		Encode: func(e *transport.Encoder, v any) {
			b := v.(*sample.Block)
			if b == nil {
				e.U8(0)
				return
			}
			e.U8(1)
			e.I32s(b.Dst)
			e.I32s(b.Src)
			e.I64s(b.EdgePtr)
			e.I32s(b.SrcIdx)
		},
		Decode: func(d *transport.Decoder) any {
			if !d.Presence() {
				return (*sample.Block)(nil)
			}
			return &sample.Block{
				Dst:     []graph.NodeID(d.I32s()),
				Src:     []graph.NodeID(d.I32s()),
				EdgePtr: d.I64s(),
				SrcIdx:  d.I32s(),
			}
		},
	})
	transport.RegisterData(wireDataAdjRequest, (*adjRequest)(nil), transport.DataCodec{
		Encode: func(e *transport.Encoder, v any) {
			q := v.(*adjRequest)
			if q == nil {
				e.U8(0)
				return
			}
			e.U8(1)
			e.I32s(q.DstIdx)
			e.I32s(q.DstIDs)
			e.I64s(q.EdgePtr)
			e.I32s(q.SrcIDs)
		},
		Decode: func(d *transport.Decoder) any {
			if !d.Presence() {
				return (*adjRequest)(nil)
			}
			return &adjRequest{
				DstIdx:  d.I32s(),
				DstIDs:  []graph.NodeID(d.I32s()),
				EdgePtr: d.I64s(),
				SrcIDs:  []graph.NodeID(d.I32s()),
			}
		},
	})
}
