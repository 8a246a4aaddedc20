package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"path/filepath"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/nn"
)

// trainOut is what a training loop measured.
type trainOut struct {
	epochSec   []float64 // wall time of each timed epoch (warm-up excluded)
	epochSeeds []float64 // seeds every rank trained on in that epoch
	// first is the first timed epoch's statistics: the counts in it
	// repeat exactly for a seed however many epochs the run times.
	first   engine.EpochStats
	replans int
	checks  checks
	model   *nn.Model // rank 0's replica after the last epoch
}

// checks counts the operations whose output the harness verified.
type checks struct {
	attempted, failed int
	notes             []string
}

func (c *checks) ok(pass bool, format string, args ...any) {
	c.attempted++
	if !pass {
		c.failed++
		if len(c.notes) < 8 {
			c.notes = append(c.notes, fmt.Sprintf(format, args...))
		}
	}
}

func (c *checks) add(o checks) {
	c.attempted += o.attempted
	c.failed += o.failed
	c.notes = append(c.notes, o.notes...)
}

// paramChecksum hashes every parameter's exact float32 bit pattern.
func paramChecksum(m *nn.Model) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, p := range m.Params() {
		for _, v := range p.W.Data {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

func (o *trainOut) record(sec float64, st engine.EpochStats) {
	if len(o.epochSec) == 0 {
		o.first = st
	}
	o.epochSec = append(o.epochSec, sec)
	o.epochSeeds = append(o.epochSeeds, float64(st.Totals.SeedsProcessed))
}

// train runs the workload's measured training loop: one warm-up epoch,
// then epochs timed ones.
func (j *job) train(epochs int, tr *tracer) (trainOut, error) {
	root := tr.begin(0, "bench", "train")
	defer tr.end(root)
	switch {
	case j.w.adaptive:
		return j.trainAdaptive(epochs, tr, root)
	case j.w.tcp:
		return j.trainTCP(epochs, tr, root)
	default:
		return trainChan(j.ranks[0].eng, epochs, tr, root), nil
	}
}

// trainChan drives an in-process engine: both ranks are goroutines
// inside RunEpoch. After every epoch the two replicas must agree bit
// for bit and the loss must be a number.
func trainChan(e *engine.Engine, epochs int, tr *tracer, parent int) trainOut {
	var out trainOut
	e.RunEpoch() // warm-up: fills the tensor pools and faults the pages in
	for ep := 0; ep < epochs; ep++ {
		sp := tr.begin(parent, "engine", "epoch")
		t := now()
		st := e.RunEpoch()
		sec := since(t)
		tr.end(sp)
		out.record(sec, st)
		sum0 := paramChecksum(e.Model(0))
		agree := true
		for d := 1; d < world; d++ {
			agree = agree && paramChecksum(e.Model(d)) == sum0
		}
		out.checks.ok(agree && finite(st.MeanLoss), "epoch %d: replicas diverged or loss %v", ep, st.MeanLoss)
	}
	out.model = e.Model(0)
	return out
}

// trainTCP runs the ranks in lock step, each on its own goroutine with
// its own engine, as rank processes would. Rank 0's clock is the
// reported one; every rank's per-epoch parameter checksum is compared
// afterwards, and the parameters after two epochs must equal those of
// the same job on the channel backend.
func (j *job) trainTCP(epochs int, tr *tracer, parent int) (trainOut, error) {
	var out trainOut
	sums := make([][]uint64, world)
	seeds := make([][]float64, world) // a distributed engine's EpochStats cover the local worker only
	comm.RunParallel(world, func(r int) {
		var rtr *tracer // only rank 0 records spans and times
		if r == 0 {
			rtr = tr
		}
		e := j.ranks[r].eng
		e.RunEpoch()
		sums[r] = append(sums[r], paramChecksum(e.Model(r)))
		for ep := 0; ep < epochs; ep++ {
			sp := rtr.begin(parent, "engine", "epoch")
			t := now()
			st := e.RunEpoch()
			sec := since(t)
			rtr.end(sp)
			sums[r] = append(sums[r], paramChecksum(e.Model(r)))
			seeds[r] = append(seeds[r], float64(st.Totals.SeedsProcessed))
			if r == 0 {
				out.record(sec, st)
				out.checks.ok(finite(st.MeanLoss), "epoch %d: loss %v", ep, st.MeanLoss)
			}
		}
	})
	for ep := range out.epochSeeds {
		out.epochSeeds[ep] = 0
		for r := range seeds {
			out.epochSeeds[ep] += seeds[r][ep]
		}
	}
	for ep := range sums[0] {
		agree := true
		for r := 1; r < world; r++ {
			agree = agree && sums[r][ep] == sums[0][ep]
		}
		out.checks.ok(agree, "epoch %d: rank checksums differ", ep)
	}

	r0 := j.ranks[0]
	out.model = r0.eng.Model(0)
	if j.trained {
		return out, nil
	}
	j.trained = true
	// Same task, same seed, channel backend: two epochs must land on
	// the same bits as the TCP ranks did after their first two.
	apt, err := core.New(r0.task)
	if err != nil {
		return out, err
	}
	ce, err := apt.BuildEngine(j.kind(r0))
	if err != nil {
		return out, err
	}
	ce.RunEpoch()
	ce.RunEpoch()
	out.checks.ok(len(sums[0]) > 1 && paramChecksum(ce.Model(0)) == sums[0][1],
		"parameters after 2 epochs differ between tcp and channel backends")
	return out, nil
}

// trainAdaptive runs the public adaptive lifecycle with a checkpoint
// every epoch. The epoch loop is inside TrainAdaptive, so epoch
// boundaries are read from outside: a watcher polls the system's own
// apt_engine_epochs_total counter and stamps each increment.
func (j *job) trainAdaptive(epochs int, tr *tracer, parent int) (trainOut, error) {
	var out trainOut
	r := j.ranks[0]
	ctr := r.apt.Metrics().Counter("apt_engine_epochs_total", "Training epochs completed.")
	stop := make(chan struct{})
	done := make(chan struct{})
	var marks []time.Time
	go func() {
		defer close(done)
		var seen int64
		for {
			stopping := false
			select {
			case <-stop:
				stopping = true
			default:
			}
			if v := ctr.Value(); v > seen {
				t := now()
				for ; seen < v; seen++ {
					marks = append(marks, t)
				}
			}
			if stopping {
				return
			}
			sleepUntil(now().Add(500 * time.Microsecond))
		}
	}()
	sp := tr.begin(parent, "core", "train_adaptive")
	res, err := r.apt.TrainAdaptive(epochs + 1) // the first epoch is the warm-up
	tr.end(sp)
	close(stop)
	<-done
	if err != nil {
		return out, err
	}
	if len(marks) != epochs+1 || len(res.Epochs) != epochs+1 {
		return out, fmt.Errorf("adaptive run: %d epoch marks and %d epoch stats for %d epochs",
			len(marks), len(res.Epochs), epochs+1)
	}
	for ep := 1; ep <= epochs; ep++ {
		st := res.Epochs[ep]
		out.record(marks[ep].Sub(marks[ep-1]).Seconds(), st)
		out.checks.ok(finite(st.MeanLoss), "epoch %d: loss %v", ep, st.MeanLoss)
	}
	out.replans = len(res.Replans)
	out.model = res.Model

	// The rolling snapshot written after the last epoch must read back
	// and hold exactly the parameters training ended with.
	path := filepath.Join(j.ckptDir, checkpoint.DefaultName)
	snap, err := checkpoint.ReadFile(path)
	out.checks.ok(err == nil && snap.EpochsDone == epochs+1, "last snapshot: %v", err)
	m := r.task.NewModel()
	err = checkpoint.LoadModelInto(m, path)
	out.checks.ok(err == nil && paramChecksum(m) == paramChecksum(res.Model),
		"last snapshot's parameters differ from the trained model (%v)", err)
	return out, nil
}
