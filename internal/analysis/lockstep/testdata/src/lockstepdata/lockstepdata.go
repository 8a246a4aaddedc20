package lockstepdata

import (
	"comm"
	"device"
)

type engine struct {
	c    *comm.Comm
	rank int
	cfg  struct{ LocalRank int }
}

// Direct collective under a rank guard: the textbook divergent
// deadlock.
func (e *engine) bad1() {
	if e.rank == 0 {
		e.c.Barrier(0) // want "collective Barrier issued under rank-dependent branch"
	}
}

// sync is a rank-uniform helper on its own; the bug is calling it
// under a rank guard.
func (e *engine) sync() { e.c.AllReduce(0, nil) }

func (e *engine) bad2() {
	if e.cfg.LocalRank != 0 {
		e.sync() // want "transitively issues a collective"
	}
}

// The else branch of a rank guard diverges just the same.
func (e *engine) bad3(rank int) {
	if rank == 0 {
		_ = rank
	} else {
		e.c.AnyTrue(0, true) // want "collective AnyTrue issued under rank-dependent branch"
	}
}

// Collectives inside a map range: iteration order is per-process
// random, so ranks interleave their sequences differently.
func (e *engine) bad4(peers map[int][]float32) {
	for p := range peers {
		e.c.AllReduce(p, nil) // want "map-range body"
	}
}

// Two levels of helpers still resolve through the call graph.
func (e *engine) fence() { e.sync() }

func (e *engine) bad5() {
	if e.c.Rank() == 0 {
		e.fence() // want "transitively issues a collective"
	}
}

// A worker's device id is its rank, through a pointer or a value.
func (e *engine) bad6(dev *device.Device) {
	if dev.ID == 0 {
		e.c.AnyTrue(dev.ID, false) // want "collective AnyTrue issued under rank-dependent branch"
	}
}

func (e *engine) bad7(d device.Device) {
	switch d.ID {
	case 0:
		e.c.Barrier(0) // want "collective Barrier issued under rank-dependent switch"
	}
}

// Rank-uniform guard: every rank takes the same branch.
func (e *engine) good1(step int) {
	if step == 0 {
		e.c.Barrier(0)
	}
}

// The cost-model query is local arithmetic, not a rendezvous.
func (e *engine) good2(rank int) {
	if rank == 0 {
		_ = e.c.AllReduceModel(8)
	}
}

// Slice iteration order is deterministic and identical across ranks.
func (e *engine) good3(xs []int) {
	for range xs {
		e.c.Barrier(0)
	}
}

// Rank-guarded local work is fine, and "misranked" is not a rank name.
func (e *engine) good4(rank int, misranked bool) {
	if rank == 0 && misranked {
		_ = len("io")
	}
}

// An ID that is not a device's is no rank, nor is a device's Machine.
func (e *engine) good5(job struct{ ID int }, d *device.Device) {
	if job.ID == 0 || d.Machine == 0 {
		e.c.Barrier(0)
	}
}

// A protocol-correct divergence carries the audited allow.
func (e *engine) allowed() {
	if e.c.Rank() == 0 {
		e.c.Barrier(0) //apt:allow lockstep coordinator-only fence; peers block on the bootstrap dial instead // want:suppressed "collective Barrier"
	}
}
