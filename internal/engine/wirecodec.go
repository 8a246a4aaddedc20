package engine

import (
	"repro/internal/graph"
	"repro/internal/sample"
	"repro/internal/transport"
)

// Wire codecs for the engine-internal structures the strategies ship
// through Payload.Data: NFP broadcasts layer-1 blocks, SNP/DNP
// exchange virtual-node requests. Registered in an init so every
// binary that links the engine — every aptrun rank — agrees on the
// (id, type, layout) triples; the ids below are part of the wire
// format and must never be reused.
//
// All four types are pointers and SNP/DNP legitimately ship typed
// nils for empty request slots, so each codec leads with a presence
// byte. graph.NodeID is an alias of int32, which is why node slices
// encode through the i32 primitives without conversion.

// Wire ids for Payload.Data types (see RegisterData).
const (
	wireDataBlock     = 1
	wireDataSNPReq    = 2
	wireDataSNPGatReq = 3
	wireDataDNPReq    = 4
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
	transport.RegisterData(wireDataSNPReq, (*snpRequest)(nil), transport.DataCodec{
		Encode: func(e *transport.Encoder, v any) {
			q := v.(*snpRequest)
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
				return (*snpRequest)(nil)
			}
			return &snpRequest{
				DstIdx:  d.I32s(),
				DstIDs:  []graph.NodeID(d.I32s()),
				EdgePtr: d.I64s(),
				SrcIDs:  []graph.NodeID(d.I32s()),
			}
		},
	})
	transport.RegisterData(wireDataSNPGatReq, (*snpGatRequest)(nil), transport.DataCodec{
		Encode: func(e *transport.Encoder, v any) {
			q := v.(*snpGatRequest)
			if q == nil {
				e.U8(0)
				return
			}
			e.U8(1)
			e.I32s(q.SrcIDs)
		},
		Decode: func(d *transport.Decoder) any {
			if !d.Presence() {
				return (*snpGatRequest)(nil)
			}
			return &snpGatRequest{SrcIDs: []graph.NodeID(d.I32s())}
		},
	})
	transport.RegisterData(wireDataDNPReq, (*dnpRequest)(nil), transport.DataCodec{
		Encode: func(e *transport.Encoder, v any) {
			q := v.(*dnpRequest)
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
				return (*dnpRequest)(nil)
			}
			return &dnpRequest{
				DstIdx:  d.I32s(),
				DstIDs:  []graph.NodeID(d.I32s()),
				EdgePtr: d.I64s(),
				SrcIDs:  []graph.NodeID(d.I32s()),
			}
		},
	})
}
