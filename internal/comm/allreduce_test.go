package comm_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/device"
	"repro/internal/hardware"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// TestAllReduceCodecIsRingData pins the charged allreduce to the pure
// data plane: at worlds 2–4, under every gradient codec and at vector
// lengths below, at and well above the world size, AllReduceCodec
// returns, bit for bit, what RingAllReduceData leaves in place on the
// same inputs.
func TestAllReduceCodecIsRingData(t *testing.T) {
	input := func(dev, i int) float32 { return float32(math.Sin(float64(dev*1000+i))) * 3 }
	for _, name := range []string{"fp32", "fp16", "int8"} {
		codec, err := transport.ChunkCodecByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{2, 3, 4} {
			for _, elems := range []int{1, 5, 103} {
				p := hardware.WithDevices(hardware.SingleMachine8GPU(), 1, n)
				c := comm.New(device.NewGroup(p))
				got, want := make([][]float32, n), make([][]float32, n)
				comm.RunParallel(n, func(dev int) {
					m := tensor.New(1, elems)
					for i := range m.Data {
						m.Data[i] = input(dev, i)
					}
					got[dev] = append([]float32{}, c.AllReduceCodec(dev, device.StageTrain, m, 0, codec).Data...)
					data := make([]float32, elems)
					for i := range data {
						data[i] = input(dev, i)
					}
					c.RingAllReduceData(dev, data, codec)
					want[dev] = data
				})
				where := fmt.Sprintf("%s world %d elems %d", name, n, elems)
				for dev := 0; dev < n; dev++ {
					for i := 0; i < elems; i++ {
						if math.Float32bits(got[dev][i]) != math.Float32bits(want[dev][i]) {
							t.Fatalf("%s: rank %d [%d] = %v, ring data plane %v", where, dev, i, got[dev][i], want[dev][i])
						}
					}
				}
			}
		}
	}
}

// TestAllReduceCodecWorldOne pins the degenerate reduction: at world 1
// AllReduceCodec returns 0 + x, so a −0 input comes back +0 and every
// other value unchanged, under every codec (nothing crosses a wire).
func TestAllReduceCodecWorldOne(t *testing.T) {
	in := []float32{float32(math.Copysign(0, -1)), 0, 1.5, -2.25, float32(math.Sin(7)), math.MaxFloat32}
	for _, name := range []string{"fp32", "fp16", "int8"} {
		codec, err := transport.ChunkCodecByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p := hardware.WithDevices(hardware.SingleMachine8GPU(), 1, 1)
		c := comm.New(device.NewGroup(p))
		m := tensor.New(1, len(in))
		copy(m.Data, in)
		got := c.AllReduceCodec(0, device.StageTrain, m, 0, codec)
		for i, v := range in {
			want := math.Float32bits(v)
			if v == 0 {
				want = 0 // +0
			}
			if b := math.Float32bits(got.Data[i]); b != want {
				t.Fatalf("%s: [%d] = %#x, want %#x", name, i, b, want)
			}
		}
		if math.Float32bits(m.Data[0]) != math.Float32bits(in[0]) {
			t.Fatalf("%s: input mutated", name)
		}
	}
}
