package comm

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/hardware"
)

// TestMeasureProfileBits pins every field of MeasureProfile by its
// float64 bits on the paper's two platforms and the NVLink extension.
// A profile is derived from simulated collective charges, which depend
// on bytes alone, so it must not move when the trial bookkeeping does.
func TestMeasureProfileBits(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    *hardware.Platform
		want map[string]uint64
	}{
		{"SingleMachine8GPU", hardware.SingleMachine8GPU(), map[string]uint64{
			"AllToAllBps":      0x42061d4e8183c9aa,
			"AllGatherBps":     0x4206514a08815766,
			"AllReduceBps":     0x41f7868f7db178a1,
			"UVAReadBps":       0x42065a0bc0000000,
			"RemoteReadBps":    0x41d47d3570000000,
			"PeerReadBps":      0x0,
			"GPUReadBps":       0x425176592e000000,
			"AllToAllCallSec":  0x3eef7560798cae1e,
			"AllGatherCallSec": 0x3eef7560798cae1e,
			"ReadCallSec":      0x3ef1d3671ac14c66,
		}},
		{"FourMachines4GPU", hardware.FourMachines4GPU(), map[string]uint64{
			"AllToAllBps":      0x41e7e064c525ae19,
			"AllGatherBps":     0x41e8333aac04bd13,
			"AllReduceBps":     0x41ead351334a9a59,
			"UVAReadBps":       0x42065a0bc0000000,
			"RemoteReadBps":    0x41e47d3570000000,
			"PeerReadBps":      0x0,
			"GPUReadBps":       0x425176592e000000,
			"AllToAllCallSec":  0x3f13a9797351f2e6,
			"AllGatherCallSec": 0x3f13a9797351f2e6,
			"ReadCallSec":      0x3ef1d3671ac14c66,
		}},
		{"SingleMachine8GPUNVLink", hardware.SingleMachine8GPUNVLink(), map[string]uint64{
			"AllToAllBps":      0x42226832a33f2315,
			"AllGatherBps":     0x42229843d06f736a,
			"AllReduceBps":     0x42108d4615eb320d,
			"UVAReadBps":       0x42065a0bc0000000,
			"RemoteReadBps":    0x41d47d3570000000,
			"PeerReadBps":      0x4222a05f20000000,
			"GPUReadBps":       0x425176592e000000,
			"AllToAllCallSec":  0x3ed4f8e5a36b262b,
			"AllGatherCallSec": 0x3ed4f8e5a36b262b,
			"ReadCallSec":      0x3ef1d3671ac14c66,
		}},
	} {
		prof := reflect.ValueOf(*MeasureProfile(tc.p))
		for i := 0; i < prof.NumField(); i++ {
			name := prof.Type().Field(i).Name
			got := math.Float64bits(prof.Field(i).Float())
			if want, ok := tc.want[name]; !ok || got != want {
				t.Errorf("%s: %s = %#x (%g), want %#x", tc.name, name, got, prof.Field(i).Float(), want)
			}
		}
	}
}
