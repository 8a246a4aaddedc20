package transport

import (
	"math"
	"net"
	"strings"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/device"
	"repro/internal/hardware"
	"repro/internal/tensor"
)

// startWorld bootstraps an n-rank TCP world over loopback, every rank
// a goroutine in this process but every byte crossing a real socket.
// The pre-bound coordinator listener makes the rendezvous port
// race-free under parallel tests.
func startWorld(t *testing.T, n int, mutate func(*TCPOptions)) []*TCP {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("bind coordinator: %v", err)
	}
	trs := make([]*TCP, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			o := TCPOptions{Rank: r, World: n, Coord: ln.Addr().String()}
			if r == 0 {
				o.CoordListener = ln
			}
			if mutate != nil {
				mutate(&o)
			}
			trs[r], errs[r] = NewTCP(o)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d bootstrap: %v", r, err)
		}
	}
	t.Cleanup(func() {
		for _, tr := range trs {
			tr.Close()
		}
	})
	return trs
}

// commFor builds one rank's comm fabric over its transport — its own
// device group and simulated clocks, exactly as a distributed engine
// process would.
func commFor(tr *TCP) *comm.Comm {
	p := hardware.WithDevices(hardware.SingleMachine8GPU(), 1, tr.World())
	return comm.NewWithTransport(device.NewGroup(p), tr)
}

func TestTCPLoopbackCollectives(t *testing.T) {
	for _, n := range []int{2, 4} {
		t.Run(map[int]string{2: "world2", 4: "world4"}[n], func(t *testing.T) {
			trs := startWorld(t, n, nil)
			sums := make([][]float32, n)
			var wg sync.WaitGroup
			for r := 0; r < n; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					c := commFor(trs[r])

					// AllToAll: payload (r -> j) carries r*100+j; delivery
					// means rank r receives j*100+r from every j.
					outs := make([]comm.Payload, n)
					for j := 0; j < n; j++ {
						outs[j] = comm.Payload{Ints: []int32{int32(r*100 + j)}}
					}
					in := c.AllToAll(r, device.StageBuild, outs)
					for j := 0; j < n; j++ {
						if want := int32(j*100 + r); len(in[j].Ints) != 1 || in[j].Ints[0] != want {
							t.Errorf("rank %d: alltoall from %d = %v, want [%d]", r, j, in[j].Ints, want)
						}
					}

					// AllGather of a rank-stamped matrix.
					for j, p := range c.AllGather(r, device.StageBuild, comm.Payload{Mat: tensor.FromData(1, 1, []float32{float32(r)})}) {
						if p.Mat == nil || p.Mat.Data[0] != float32(j) {
							t.Errorf("rank %d: allgather slot %d = %+v, want %d", r, j, p.Mat, j)
						}
					}

					// AllReduce must produce the identical sum everywhere.
					mat := tensor.FromData(1, 3, []float32{float32(r + 1), 0.5, float32(r) * 0.125})
					sums[r] = append([]float32{}, c.AllReduce(r, device.StageTrain, mat, 0).Data...)

					// AnyTrue: only rank n-1 votes true; all must agree true.
					if !c.AnyTrue(r, r == n-1) {
						t.Errorf("rank %d: AnyTrue lost the true vote", r)
					}
					c.AllGatherNoCharge(r, comm.Payload{})
				}(r)
			}
			wg.Wait()
			want := []float32{float32(n*(n+1)) / 2, 0.5 * float32(n), 0.125 * float32(n*(n-1)) / 2}
			for r := 0; r < n; r++ {
				for i := range want {
					if math.Float32bits(sums[r][i]) != math.Float32bits(want[i]) {
						t.Fatalf("rank %d allreduce = %v, want %v (bit-exact)", r, sums[r], want)
					}
				}
			}
			for r, tr := range trs {
				if err := tr.Close(); err != nil {
					t.Fatalf("rank %d close: %v", r, err)
				}
			}
		})
	}
}

// TestTCPManyFrames pushes enough traffic through every directed pair
// to exercise outbox/inbox backpressure and per-pair FIFO order.
func TestTCPManyFrames(t *testing.T) {
	const n, rounds = 3, 200
	trs := startWorld(t, n, nil)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tr := trs[r]
			for k := 0; k < rounds; k++ {
				for j := 0; j < n; j++ {
					if j != r {
						tr.Send(r, j, comm.Payload{Ints: []int32{int32(k), int32(r)}})
					}
				}
				for j := 0; j < n; j++ {
					if j == r {
						continue
					}
					p := tr.Recv(r, j)
					if p.Ints[0] != int32(k) || p.Ints[1] != int32(j) {
						t.Errorf("rank %d round %d from %d: got %v", r, k, j, p.Ints)
					}
				}
			}
		}(r)
	}
	wg.Wait()
}

func TestTCPSendOversizedPanics(t *testing.T) {
	trs := startWorld(t, 2, func(o *TCPOptions) { o.MaxFrameBytes = 64 })
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("oversized Send did not panic")
		}
		if !strings.Contains(r.(string), ErrOversized.Error()) {
			t.Fatalf("panic %q does not carry ErrOversized", r)
		}
	}()
	trs[0].Send(0, 1, comm.Payload{Mat: tensor.FromData(8, 8, make([]float32, 64))})
}

func TestTCPOptionValidation(t *testing.T) {
	if _, err := NewTCP(TCPOptions{Rank: 2, World: 2, Coord: "127.0.0.1:1"}); err == nil {
		t.Error("rank >= world accepted")
	}
	if _, err := NewTCP(TCPOptions{Rank: 1, World: 1, Coord: "127.0.0.1:1"}); err == nil {
		t.Error("world < 2 accepted")
	}
	if _, err := NewTCP(TCPOptions{Rank: 1, World: 2}); err == nil {
		t.Error("missing coordinator address accepted")
	}
}

// TestMeasureWireAgreement checks the calibration contract: every rank
// derives the exact same WireStats, so planning decisions based on
// them can never diverge across rank processes.
func TestMeasureWireAgreement(t *testing.T) {
	const n = 3
	trs := startWorld(t, n, nil)
	stats := make([]WireStats, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			stats[r] = MeasureWire(commFor(trs[r]), r, 1<<12, 2)
		}(r)
	}
	wg.Wait()
	for r := 1; r < n; r++ {
		if stats[r] != stats[0] {
			t.Fatalf("rank %d stats %+v differ from rank 0 %+v", r, stats[r], stats[0])
		}
	}
	if stats[0].AllToAllBps <= 0 || math.IsInf(stats[0].AllToAllBps, 0) {
		t.Fatalf("implausible alltoall bandwidth %v", stats[0].AllToAllBps)
	}
	base := comm.MeasureProfile(hardware.WithDevices(hardware.SingleMachine8GPU(), 1, n))
	cal := stats[0].ApplyTo(base)
	if cal.AllToAllBps != stats[0].AllToAllBps || cal.AllReduceBps != stats[0].AllReduceBps {
		t.Fatalf("ApplyTo dropped measured bandwidths: %+v", cal)
	}
	if cal.UVAReadBps != base.UVAReadBps {
		t.Fatalf("ApplyTo clobbered memory-subsystem field: %v != %v", cal.UVAReadBps, base.UVAReadBps)
	}
}
