package comm

import (
	"math"
	"sync"
	"testing"

	"repro/internal/device"
	"repro/internal/hardware"
	"repro/internal/tensor"
)

// ringWorld runs fn on every rank of an in-process world and returns
// each rank's result.
func ringWorld(t *testing.T, n int, fn func(c *Comm, dev int) []float32) [][]float32 {
	t.Helper()
	p := hardware.WithDevices(hardware.SingleMachine8GPU(), 1, n)
	c, _ := newTestComm(p)
	out := make([][]float32, n)
	var mu sync.Mutex
	RunParallel(n, func(dev int) {
		r := fn(c, dev)
		mu.Lock()
		out[dev] = r
		mu.Unlock()
	})
	return out
}

func TestChunkBounds(t *testing.T) {
	cases := []struct {
		elems, n int
		want     []int
	}{
		{8, 4, []int{0, 2, 4, 6, 8}},
		{10, 4, []int{0, 3, 6, 8, 10}},
		{3, 4, []int{0, 1, 2, 3, 3}}, // fewer elements than ranks: empty tail chunk
		{1, 2, []int{0, 1, 1}},
		{7, 1, []int{0, 7}},
	}
	for _, tc := range cases {
		got := chunkBounds(tc.elems, tc.n)
		if len(got) != len(tc.want) {
			t.Fatalf("chunkBounds(%d,%d) = %v, want %v", tc.elems, tc.n, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("chunkBounds(%d,%d) = %v, want %v", tc.elems, tc.n, got, tc.want)
			}
		}
	}
}

// TestRingAllReduceDataExact runs the in-place ring on dyadic values
// whose float32 sums are exact in any order, so the result is checked
// against the true sum at several worlds and odd vector lengths.
func TestRingAllReduceDataExact(t *testing.T) {
	for _, n := range []int{2, 3, 4} {
		for _, elems := range []int{1, 5, 8, 31} {
			results := ringWorld(t, n, func(c *Comm, dev int) []float32 {
				data := make([]float32, elems)
				for i := range data {
					data[i] = float32(dev+1) + float32(i)*0.25
				}
				c.RingAllReduceData(dev, data, nil)
				return data
			})
			for i := 0; i < elems; i++ {
				want := float32(n*(n+1))/2 + float32(n)*float32(i)*0.25
				for dev := 0; dev < n; dev++ {
					if results[dev][i] != want {
						t.Fatalf("world %d elems %d: dev %d[%d] = %v, want %v",
							n, elems, dev, i, results[dev][i], want)
					}
				}
			}
		}
	}
}

// TestRingMatchesNaive compares the ring allreduce on random-ish data
// against a test-local naive reduction (full-mesh gather, then a sum in
// rank order): values agree within float tolerance (the summation
// orders differ), and every rank holds bit-identical ring results.
func TestRingMatchesNaive(t *testing.T) {
	const n, elems = 4, 103
	p := hardware.WithDevices(hardware.SingleMachine8GPU(), 1, n)
	c, _ := newTestComm(p)
	ring, naive := make([][]float32, n), make([][]float32, n)
	RunParallel(n, func(dev int) {
		m := tensor.New(1, elems)
		for i := range m.Data {
			m.Data[i] = float32(math.Sin(float64(dev*1000 + i))) // deterministic, non-dyadic
		}
		ring[dev] = append([]float32{}, c.AllReduce(dev, device.StageTrain, m, 0).Data...)
		sum := make([]float32, elems)
		for _, part := range c.AllGatherNoCharge(dev, Payload{Mat: m}) {
			for i, v := range part.Mat.Data {
				sum[i] += v
			}
		}
		naive[dev] = sum
	})
	for dev := 1; dev < n; dev++ {
		for i := 0; i < elems; i++ {
			if math.Float32bits(ring[dev][i]) != math.Float32bits(ring[0][i]) {
				t.Fatalf("ring results differ across ranks at [%d][%d]", dev, i)
			}
			if math.Float32bits(naive[dev][i]) != math.Float32bits(naive[0][i]) {
				t.Fatalf("naive results differ across ranks at [%d][%d]", dev, i)
			}
		}
	}
	for i := 0; i < elems; i++ {
		if d := math.Abs(float64(ring[0][i] - naive[0][i])); d > 1e-5 {
			t.Fatalf("ring vs naive at [%d]: %v vs %v", i, ring[0][i], naive[0][i])
		}
	}
}

// truncCodec is a test-local lossy codec (keeps the top 2 mantissa
// bytes of each float) exercising the compressed ring path without
// importing package transport.
type truncCodec struct{}

func (truncCodec) ChunkID() uint8       { return 200 }
func (truncCodec) Name() string         { return "trunc" }
func (truncCodec) EncodedLen(n int) int { return 2 * n }
func (truncCodec) EncodeChunk(dst []byte, src []float32) {
	for i, v := range src {
		b := math.Float32bits(v)
		dst[2*i] = byte(b >> 24)
		dst[2*i+1] = byte(b >> 16)
	}
}
func (truncCodec) DecodeChunk(dst []float32, src []byte) error {
	for i := range dst {
		dst[i] = math.Float32frombits(uint32(src[2*i])<<24 | uint32(src[2*i+1])<<16)
	}
	return nil
}

// TestRingCompressedDeterministic checks the compressed ring's core
// guarantee: every rank decodes the chunk owner's single final
// encoding, so all ranks end bit-identical even under a lossy codec,
// and the values stay within the codec's error of the exact sum.
func TestRingCompressedDeterministic(t *testing.T) {
	for _, n := range []int{2, 4} {
		const elems = 37
		results := ringWorld(t, n, func(c *Comm, dev int) []float32 {
			data := make([]float32, elems)
			for i := range data {
				data[i] = float32(math.Sin(float64(dev*31 + i)))
			}
			c.RingAllReduceData(dev, data, truncCodec{})
			return data
		})
		for dev := 1; dev < n; dev++ {
			for i := 0; i < elems; i++ {
				if math.Float32bits(results[dev][i]) != math.Float32bits(results[0][i]) {
					t.Fatalf("world %d: compressed ring differs across ranks at [%d][%d]: %x vs %x",
						n, dev, i, math.Float32bits(results[dev][i]), math.Float32bits(results[0][i]))
				}
			}
		}
		for i := 0; i < elems; i++ {
			var exact float64
			for dev := 0; dev < n; dev++ {
				exact += math.Sin(float64(dev*31 + i))
			}
			// truncCodec keeps ~7 mantissa bits => relative error ~2^-8
			// per hop, n hops worst case.
			if d := math.Abs(float64(results[0][i]) - exact); d > 0.02*float64(n) {
				t.Fatalf("world %d: compressed sum at [%d] = %v, exact %v", n, i, results[0][i], exact)
			}
		}
	}
}

// TestRingWorld1NoOp pins the degenerate single-rank behavior of both
// ring entry points.
func TestRingWorld1NoOp(t *testing.T) {
	p := hardware.WithDevices(hardware.SingleMachine8GPU(), 1, 1)
	c, _ := newTestComm(p)
	data := []float32{1, -2, 3.5}
	c.RingAllReduceData(0, data, nil)
	if data[0] != 1 || data[1] != -2 || data[2] != 3.5 {
		t.Fatalf("world-1 ring mutated data: %v", data)
	}
	m := tensor.FromData(1, 3, []float32{1, -2, 3.5})
	r := c.AllReduce(0, device.StageTrain, m, 0)
	for i := range m.Data {
		if math.Float32bits(r.Data[i]) != math.Float32bits(m.Data[i]) {
			t.Fatalf("world-1 allreduce[%d] = %v, want %v", i, r.Data[i], m.Data[i])
		}
	}
}

// TestAllReduceChargeModel pins the ring timing/volume model: wire
// bytes per rank are 2·(n-1)/n of the (encoded) volume, and a codec
// (AllReduceCodec's, through allReduceModel) shrinks the charge by its
// encoding ratio.
func TestAllReduceChargeModel(t *testing.T) {
	p := hardware.WithDevices(hardware.SingleMachine8GPU(), 1, 4)
	c, _ := newTestComm(p)
	col := traceSpans(c)
	const elems = 1000
	secFP32, wire := c.AllReduceModel(elems)
	if want := int64(2 * elems * 4 * 3 / 4); wire != want {
		t.Errorf("fp32 ring wire = %d, want %d", wire, want)
	}
	secTrunc, wireTrunc := c.allReduceModel(elems, elems*4, truncCodec{})
	if want := int64(2 * elems * 2 * 3 / 4); wireTrunc != want {
		t.Errorf("trunc ring wire = %d, want %d", wireTrunc, want)
	}
	if secTrunc >= secFP32 {
		t.Errorf("compressed allreduce modeled slower: %v >= %v", secTrunc, secFP32)
	}
	// The charged time and the spans' volume follow the same model.
	RunParallel(4, func(dev int) {
		c.AllReduce(dev, device.StageTrain, tensor.New(1, elems), 0)
	})
	var got int64
	for _, tr := range col.Tracks() {
		got += spanBytes(tr, "allreduce")
	}
	if got != 4*wire {
		t.Errorf("allreduce span bytes = %d, want %d", got, 4*wire)
	}
}
