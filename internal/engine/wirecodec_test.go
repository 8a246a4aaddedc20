package engine

import (
	"encoding/hex"
	"reflect"
	"testing"

	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/sample"
	"repro/internal/transport"
)

// roundTrip pushes a payload through the registered engine codecs and
// back, as the TCP transport does per frame.
func roundTrip(t *testing.T, p comm.Payload) comm.Payload {
	t.Helper()
	b, err := transport.AppendPayload(nil, p)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := transport.DecodePayload(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return got
}

// TestEngineWireGolden pins the exact Payload.Data byte layout of the
// two engine wire types (data ids 1 and 2; 3 and 4 are retired). These bytes cross version
// skew during live model swap, so any diff here is a protocol break:
// bump the data id instead of changing a layout.
func TestEngineWireGolden(t *testing.T) {
	frame := "01" + "04" + "0700000000000000" // version, flags(data), bytes=7
	cases := []struct {
		name string
		data any
		want string
	}{
		{
			name: "block",
			data: &sample.Block{
				Dst:     []graph.NodeID{1, 2},
				Src:     []graph.NodeID{3},
				EdgePtr: []int64{0, 2},
				SrcIdx:  []int32{0},
			},
			want: frame + "01" + "31000000" + // id 1, body length 49
				"01" + // presence
				"02000000" + "01000000" + "02000000" + // Dst
				"01000000" + "03000000" + // Src
				"02000000" + "0000000000000000" + "0200000000000000" + // EdgePtr
				"01000000" + "00000000", // SrcIdx
		},
		{
			name: "adjRequest",
			data: &adjRequest{DstIdx: []int32{1}, DstIDs: []graph.NodeID{2}, EdgePtr: []int64{0, 1}, SrcIDs: []graph.NodeID{3}},
			want: frame + "02" + "2d000000" + // id 2, body length 45
				"01" +
				"01000000" + "01000000" + // DstIdx
				"01000000" + "02000000" + // DstIDs
				"02000000" + "0000000000000000" + "0100000000000000" + // EdgePtr
				"01000000" + "03000000", // SrcIDs
		},
		{
			// The sources-only form routeBySource sends when the layer
			// cannot pre-sum.
			name: "adjRequestSrcOnly",
			data: &adjRequest{SrcIDs: []graph.NodeID{4, 5}},
			want: frame + "02" + "19000000" + // id 2, body length 25
				"01" + "00000000" + "00000000" + "00000000" + // empty DstIdx, DstIDs, EdgePtr
				"02000000" + "04000000" + "05000000", // SrcIDs
		},
		{
			name: "adjRequestNil",
			data: (*adjRequest)(nil),
			want: frame + "02" + "01000000" + "00", // typed nil = absent presence byte
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, err := transport.AppendPayload(nil, comm.Payload{Data: tc.data, Bytes: 7})
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			if got := hex.EncodeToString(b); got != tc.want {
				t.Fatalf("golden mismatch:\n got  %s\n want %s", got, tc.want)
			}
			back := roundTrip(t, comm.Payload{Data: tc.data, Bytes: 7})
			if !reflect.DeepEqual(back.Data, tc.data) {
				t.Fatalf("roundtrip changed data:\n sent %#v\n got  %#v", tc.data, back.Data)
			}
		})
	}
}

func TestEngineDataCodecs(t *testing.T) {
	blk := &sample.Block{
		Dst:     []graph.NodeID{3, 7},
		Src:     []graph.NodeID{3, 7, 9, 11},
		EdgePtr: []int64{0, 2, 4},
		SrcIdx:  []int32{0, 2, 1, 3},
	}
	cases := map[string]any{
		"block": blk,
		// The request shapes each routed strategy sends, all one type.
		"snpReq":     &adjRequest{DstIdx: []int32{0, 1}, DstIDs: []graph.NodeID{5, 6}, EdgePtr: []int64{0, 1, 3}, SrcIDs: []graph.NodeID{9, 10, 11}},
		"snpReqNil":  (*adjRequest)(nil),
		"snpGatReq":  &adjRequest{SrcIDs: []graph.NodeID{1, 2, 3}},
		"dnpReq":     &adjRequest{DstIdx: []int32{4}, DstIDs: []graph.NodeID{8}, EdgePtr: []int64{0, 2}, SrcIDs: []graph.NodeID{1, 2}},
		"blockEmpty": &sample.Block{EdgePtr: []int64{0}},
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			got := roundTrip(t, comm.Payload{Data: data, Bytes: 99})
			if got.Bytes != 99 {
				t.Fatalf("Bytes changed: %d", got.Bytes)
			}
			if !reflect.DeepEqual(got.Data, data) {
				t.Fatalf("data changed:\n sent %#v\n got  %#v", data, got.Data)
			}
			// The decoded value must keep the sender's concrete type: the
			// strategy runners type-assert on receive, and a typed nil must
			// stay a typed nil of the same type.
			if reflect.TypeOf(got.Data) != reflect.TypeOf(data) {
				t.Fatalf("type changed: %T -> %T", data, got.Data)
			}
		})
	}
}
