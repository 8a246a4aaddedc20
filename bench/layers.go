package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/cache"
	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/hardware"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/sample"
	"repro/internal/strategy"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// The traced run. Every workload gets the same probe list, because the
// regression gate refuses a `--trace 1` result that lacks any declared
// per-layer metric (its contract is quoted in README.md): a probe that
// depends only on the platform (the ring codec series, the rendezvous,
// MeasureWire) is repeated per workload, and the training workloads
// report the serve layer from a server over the model they just
// trained. What differs between workloads is the graph, model,
// strategy and backend the probes run on. Times are spans the benchmark
// records around calls into the layers' public functions; counts are
// the program's own public statistics.

// probes carries the traced run's shared state.
type probes struct {
	j   *job
	cfg *config
	tr  *tracer
	rep *report
	ck  *checks
	r   *rank         // rank 0: the task and the APT the probes build engines from
	k   strategy.Kind // the strategy the workload runs under

	epochSec   float64                   // traced wall epoch (median)
	model      *nn.Model                 // the model the training probe ended with
	chanEpoch  map[strategy.Kind]float64 // channel-backend wall epoch per strategy
	store      *cache.Store              // the replay's feature store
	batch      *sample.MiniBatch         // one real layer-1 batch for shape-dependent probes
	stepSec    float64                   // mean replayed step
	hiddenCols int
}

func runTraced(spec *benchSpec, w *workload, cfg *config) (*report, checks, error) {
	var ck checks
	tr := newTracer(w.name)
	j, _, root, err := setUp(w, cfg, tr)
	if err != nil {
		return nil, ck, fmt.Errorf("set-up: %w", err)
	}
	defer j.close()
	if err := tr.checkParts(root, "setup", cfg.partsTol()); err != nil {
		return nil, ck, err
	}
	p := &probes{j: j, cfg: cfg, tr: tr, rep: newReport(spec.PerLayer), ck: &ck, r: j.ranks[0]}
	p.k = j.kind(p.r)
	p.hiddenCols = hidden
	if w.gat {
		p.hiddenCols = hidden * gatHeads
	}
	for _, step := range []func() error{
		func() error { p.setupMetrics(root); return nil },
		p.trainProbe,
		p.replay,
		p.kernels,
		p.strategies,
		p.scaling,
		p.wire,
		p.checkpoints,
		p.serving,
		p.obsOverhead,
	} {
		if err := step(); err != nil {
			return nil, ck, err
		}
	}
	if err := tr.write(filepath.Join(cfg.outDir, w.name+".trace.json")); err != nil {
		return nil, ck, err
	}
	return p.rep, ck, nil
}

// setupMetrics reports the children of the set-up span and the
// partition's quality.
func (p *probes) setupMetrics(root int) {
	_, by := p.tr.childSum(root)
	p.rep.set("dataset.build_s", by["dataset.build"])
	p.rep.set("partition.multilevel_s", by["partition.multilevel"])
	p.rep.set("core.prepare_s", by["core.prepare"])
	p.rep.set("core.plan_s", by["core.plan"])
	q := partition.Evaluate(p.r.task.Graph, p.r.apt.Partition())
	p.rep.set("partition.cut_ratio", q.CutRatio)
	p.rep.set("partition.imbalance", q.Imbalance)

	sp := p.tr.begin(0, "core", "dryrun")
	_, err := p.r.apt.DryRun()
	p.rep.set("core.dryrun_s", p.tr.end(sp))
	p.ck.ok(err == nil, "dry-run: %v", err)
}

// trainProbe runs the workload's training loop twice, first without
// and then with the benchmark's spans, and reports the three clocks,
// the program's own counts for one epoch and the allocator's work.
func (p *probes) trainProbe() error {
	epochs := p.cfg.timedEpochs(p.j.w) / 4
	if epochs < 2 {
		epochs = 2
	}
	if p.j.w.serve {
		// The serving workload's set-up trained through core.Train; the
		// training probe drives the same plan's engine directly.
		e, err := p.r.apt.BuildEngine(p.k)
		if err != nil {
			return err
		}
		p.r.eng = e
	}
	plain, err := p.j.train(epochs, nil)
	if err != nil {
		return err
	}
	p.ck.add(plain.checks)
	if p.j.w.adaptive {
		// TrainAdaptive runs once per APT; the traced half gets a fresh
		// one over the same task and checkpoint directory.
		apt, err := core.New(p.r.task)
		if err != nil {
			return err
		}
		if _, err := apt.Plan(); err != nil {
			return err
		}
		apt.CheckpointDir = p.j.ckptDir
		p.r.apt = apt
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out, err := p.j.train(epochs, p.tr)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	p.ck.add(out.checks)
	p.model = out.model
	p.epochSec = median(out.epochSec)
	ran := float64(epochs + 1) // the warm-up epoch allocates too
	p.rep.set("engine.epoch_s", p.epochSec)
	p.rep.set("bench.trace_overhead_share", p.epochSec/median(plain.epochSec)-1)
	p.rep.set("engine.alloc_mb_per_epoch", float64(after.TotalAlloc-before.TotalAlloc)/ran/(1<<20))
	p.rep.set("engine.allocs_per_epoch", float64(after.Mallocs-before.Mallocs)/ran)
	p.rep.set("engine.gc_pause_ms_per_epoch", float64(after.PauseTotalNs-before.PauseTotalNs)/ran/1e6)
	p.rep.set("core.replan_switches", float64(out.replans))
	p.rep.set("nn.loss_epoch", out.first.MeanLoss)

	// Three clocks for the plan in effect: the cost model's prediction,
	// the simulated device time and (engine.epoch_s) the wall.
	st := out.first
	cm := &core.CostModel{Profile: p.r.apt.Profile(), Devices: world, IncludeTrain: true}
	pred := cm.Estimate(p.k, p.r.apt.DryRunStats().PerStrategy[p.k]).TotalCost()
	p.rep.set("core.pred_epoch_s", pred)
	p.rep.set("engine.sim_epoch_s", st.EpochTime())
	p.rep.set("core.pred_over_sim", pred/st.EpochTime())
	p.rep.set("engine.sim_sample_s", st.SampleSec)
	p.rep.set("engine.sim_build_s", st.BuildSec)
	p.rep.set("engine.sim_load_s", st.LoadSec)
	p.rep.set("engine.sim_train_s", st.TrainSec)
	p.rep.set("engine.sim_shuffle_s", st.ShuffleSec)

	// Counts of the first timed epoch: they repeat exactly for a seed.
	t := st.Totals
	p.rep.set("sample.edges_per_epoch", float64(t.SampledEdges))
	var reads int64
	for _, n := range t.Load.Nodes {
		reads += n
	}
	p.rep.set("cache.hit_share", share(t.Load.Nodes[cache.LocGPU]+t.Load.Nodes[cache.LocGPUQ], reads))
	p.rep.set("cache.int8_hit_share", share(t.Load.Nodes[cache.LocGPUQ], reads))
	p.rep.set("cache.host_bytes_per_epoch", float64(t.Load.Bytes[cache.LocLocalCPU]+t.Load.Bytes[cache.LocRemoteCPU]))
	p.rep.set("comm.hidden_bytes_per_epoch", float64(t.HiddenShuffleBytes()))
	p.rep.set("comm.graph_bytes_per_epoch", float64(t.GraphShuffleBytes()))
	p.rep.set("comm.calls_per_epoch", float64(t.BuildA2ACalls+t.BuildBcastCalls+t.ShufA2ACalls+t.ShufBcastCalls))
	exposed := 0.0
	if t.GradCommSec > 0 {
		exposed = t.GradExposedSec / t.GradCommSec
	}
	p.rep.set("comm.grad_exposed_share", exposed)
	return nil
}

func share(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// replayStore assembles a feature store for the replay from the cache
// layer's public functions: range placement, the dry-run's hottest
// nodes in fp32, and the workload's int8 warm tier below them.
func (p *probes) replayStore() *cache.Store {
	t := &p.r.task
	s := cache.NewStore(t.Platform, t.Graph.NumNodes(), t.FeatDim, t.Feats)
	s.HostByRange()
	hotBudget := t.CacheBytes
	warmNodes := 0
	if t.Int8CacheFrac > 0 {
		warm := int64(float64(t.CacheBytes) * t.Int8CacheFrac)
		hotBudget -= warm
		warmNodes = int(warm / tensor.QuantRowBytes(t.FeatDim))
	}
	sel := cache.SelectConfig{
		Policy: cache.PolicyHotGlobal, Freq: p.r.apt.DryRunStats().Freq, Graph: t.Graph,
		CapacityNodes: int(hotBudget / int64(4*t.FeatDim)), Devices: world,
	}
	if warmNodes > 0 {
		hot, warm := cache.SelectTiered(sel, warmNodes)
		for d := range hot {
			s.ConfigureCacheTiered(d, hot[d], warm[d])
		}
	} else {
		for d, l := range cache.Select(sel) {
			s.ConfigureCache(d, l)
		}
	}
	return s
}

// mesh is a world of comm fabrics: one shared in-process fabric, or
// one per rank over a loopback TCP transport.
type mesh struct {
	comms []*comm.Comm
	trs   []*transport.TCP
}

func chanMesh(p *hardware.Platform) *mesh {
	c := comm.New(device.NewGroup(p))
	m := &mesh{}
	for r := 0; r < world; r++ {
		m.comms = append(m.comms, c)
	}
	return m
}

// tcpMesh bootstraps a fresh loopback mesh and returns how long rank
// 0's rendezvous took.
func tcpMesh(p *hardware.Platform) (*mesh, float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	m := &mesh{comms: make([]*comm.Comm, world), trs: make([]*transport.TCP, world)}
	errs := make([]error, world)
	var sec float64
	comm.RunParallel(world, func(r int) {
		opts := transport.TCPOptions{Rank: r, World: world, Coord: ln.Addr().String()}
		if r == 0 {
			opts.CoordListener = ln
		}
		t := now()
		m.trs[r], errs[r] = transport.NewTCP(opts)
		if r == 0 {
			sec = since(t)
		}
		if errs[r] == nil {
			m.comms[r] = comm.NewWithTransport(device.NewGroup(p), m.trs[r])
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, 0, err
		}
	}
	return m, sec, nil
}

func (m *mesh) close() error {
	var first error
	for _, t := range m.trs {
		if err := t.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// workloadMesh is a fabric on the workload's own backend. A TCP job's
// mesh is reused: its engines are idle while the probes run.
func (p *probes) workloadMesh() *mesh {
	if !p.j.w.tcp {
		return chanMesh(p.r.task.Platform)
	}
	m := &mesh{}
	for _, r := range p.j.ranks {
		m.comms = append(m.comms, comm.NewWithTransport(device.NewGroup(r.task.Platform), r.tr))
	}
	return m
}

// replay runs one epoch of data-parallel steps from the layers' public
// functions, both ranks at once so each sees the contention it sees in
// the engine, with one span per call on rank 0. It runs twice: the
// first pass warms the pools and fixes the loss the second must
// reproduce bit for bit.
func (p *probes) replay() error {
	t := &p.r.task
	p.store = p.replayStore()
	m := p.workloadMesh()
	group := device.NewGroup(t.Platform)
	smp := t.Sampling
	if t.NewModel().NeedsDstInSrc() {
		smp.IncludeDstInSrc = true
	}
	p.batch = sample.NewSampler(t.Graph, smp, graph.NewRNG(t.Seed^0xbead)).Sample(t.Seeds[:min(batchSize, len(t.Seeds))])

	pass := func(tr *tracer, parent int) (lossLast float64, steps []int) {
		plan := sample.SplitEven(t.Seeds, world, graph.NewRNG(t.Seed^0xabcdef))
		n := plan.NumBatches(t.BatchSize)
		comm.RunParallel(world, func(dev int) {
			var rtr *tracer
			if dev == 0 {
				rtr = tr
			}
			model := t.NewModel()
			model.Init(graph.NewRNG(t.Seed))
			opt := t.NewOptimizer()
			sampler := sample.NewSampler(t.Graph, smp, graph.NewRNG(t.Seed^uint64(0x9e37+dev*7919)))
			feats := p.store.FeatView(dev)
			params := model.Params()
			flat := tensor.New(1, model.NumParamElements())
			var labels []int32
			for step := 0; step < n; step++ {
				seeds := plan.Batch(dev, step, t.BatchSize)
				global := 0
				for d := 0; d < world; d++ {
					global += len(plan.Batch(d, step, t.BatchSize))
				}
				st := rtr.begin(parent, "bench", "step")
				if dev == 0 && rtr != nil {
					steps = append(steps, st)
				}

				sp := rtr.begin(st, "sample", "sample")
				mb := sampler.Sample(seeds)
				rtr.end(sp)

				sp = rtr.begin(st, "cache", "charge")
				p.store.Charge(group.Devices[dev], mb.Layer1().Src)
				rtr.end(sp)

				sp = rtr.begin(st, "nn", "forward")
				fs := model.ForwardGathered(mb, feats, mb.Layer1().Src)
				rtr.end(sp)

				labels = labels[:0]
				for _, s := range seeds {
					labels = append(labels, t.Labels[s])
				}
				sp = rtr.begin(st, "nn", "loss")
				loss, dLogits := nn.SoftmaxCrossEntropy(fs.Logits, labels, max(global, 1))
				rtr.end(sp)

				sp = rtr.begin(st, "nn", "backward")
				model.Backward(mb, fs, dLogits)
				rtr.end(sp)

				off := 0
				for _, pr := range params {
					off += copy(flat.Data[off:], pr.G.Data)
				}
				sp = rtr.begin(st, "comm", "allreduce")
				sum := m.comms[dev].AllReduceCodec(dev, device.StageTrain, flat, 0, nil)
				rtr.end(sp)
				off = 0
				for _, pr := range params {
					off += copy(pr.G.Data, sum.Data[off:off+len(pr.G.Data)])
				}
				tensor.Put(sum)

				sp = rtr.begin(st, "nn", "optimizer")
				opt.Step(params)
				model.ZeroGrad()
				rtr.end(sp)
				rtr.end(st)

				if dev == 0 {
					lossLast = loss
				}
			}
		})
		return lossLast, steps
	}

	first, _ := pass(nil, 0)
	root := p.tr.begin(0, "bench", "replay")
	second, steps := pass(p.tr, root)
	p.tr.end(root)
	p.ck.ok(first == second, "nn.loss_last differs between two runs of one seed: %v vs %v", first, second)
	p.rep.set("nn.loss_last", second)

	// Parts-sum: the layer spans of every step must explain the step.
	var whole, parts float64
	by := map[string]float64{}
	for _, st := range steps {
		whole += p.tr.dur(st)
		s, b := p.tr.childSum(st)
		parts += s
		for k, v := range b {
			by[k] += v
		}
	}
	if whole <= 0 || (whole-parts)/whole > p.cfg.partsTol() {
		return fmt.Errorf("parts-sum replay: layer spans cover %.6fs of %.6fs of step time", parts, whole)
	}
	n := float64(len(steps))
	p.stepSec = whole / n
	p.rep.set("sample.batch_ms", by["sample.sample"]/n*1e3)
	p.rep.set("sample.share", by["sample.sample"]/whole)
	p.rep.set("cache.share", by["cache.charge"]/whole)
	p.rep.set("nn.forward_ms", by["nn.forward"]/n*1e3)
	p.rep.set("nn.loss_ms", by["nn.loss"]/n*1e3)
	p.rep.set("nn.backward_ms", by["nn.backward"]/n*1e3)
	p.rep.set("nn.optimizer_ms", by["nn.optimizer"]/n*1e3)
	p.rep.set("comm.grad_allreduce_ms", by["comm.allreduce"]/n*1e3)
	p.rep.set("engine.layers_sum_s", parts)
	p.rep.set("engine.unattributed_share", (p.epochSec-parts)/p.epochSec)
	return nil
}

// timeMs is the median wall time of fn over reps calls, in ms, after
// two warm-up calls.
func (p *probes) timeMs(reps int, fn func()) float64 {
	fn()
	fn()
	xs := make([]float64, p.cfg.reps(reps))
	for i := range xs {
		t := now()
		fn()
		xs[i] = since(t) * 1e3
	}
	return median(xs)
}

// kernels times the tensor kernels the first layer runs, at the shapes
// of one real layer-1 batch of this workload, and the materialised
// feature gather the fused kernels avoid.
func (p *probes) kernels() error {
	t := &p.r.task
	blk := p.batch.Layer1()
	feats := p.store.FeatView(0)
	w := tensor.New(t.FeatDim, hidden)
	rng := graph.NewRNG(t.Seed ^ 0x7e5)
	for i := range w.Data {
		w.Data[i] = rng.NormFloat32() * 0.1
	}
	z := tensor.GatherMatMulSrc(feats, blk.Src, w)
	defer tensor.Put(z)
	dw := tensor.New(t.FeatDim, hidden)
	dstVal := make([]float32, blk.NumDst())
	srcVal := make([]float32, blk.NumSrc())

	gm := p.timeMs(15, func() { tensor.Put(tensor.GatherMatMulSrc(feats, blk.Src, w)) })
	ta := p.timeMs(15, func() { tensor.GatherTMatMulAccSrc(dw, feats, blk.Src, z) })
	sa := p.timeMs(15, func() { tensor.Put(tensor.SegmentAggFused(blk.EdgePtr, blk.SrcIdx, z, true, true)) })
	sd := p.timeMs(15, func() { tensor.SDDMMAdd(blk.EdgePtr, blk.SrcIdx, dstVal, srcVal) })
	p.rep.set("tensor.gather_matmul_ms", gm)
	p.rep.set("tensor.tmatmul_acc_ms", ta)
	p.rep.set("tensor.segment_agg_ms", sa)
	p.rep.set("tensor.sddmm_ms", sd)
	// Per step the first layer projects, aggregates and accumulates the
	// weight gradient once per head; GAT also scores every edge.
	perStep := gm + ta + sa
	if p.j.w.gat {
		perStep = gatHeads * (gm + ta + sa + sd)
	}
	p.rep.set("tensor.share", perStep/1e3/p.stepSec)

	dev := device.NewGroup(t.Platform).Devices[0]
	p.rep.set("cache.load_ms", p.timeMs(15, func() {
		m, _ := p.store.Load(dev, blk.Src)
		tensor.Put(m)
	}))
	return nil
}

// epochsOf runs a warm-up and two timed epochs (one in the smoke test)
// and returns the median wall epoch and the last epoch's statistics.
func (p *probes) epochsOf(e *engine.Engine) (float64, engine.EpochStats) {
	e.RunEpoch()
	var xs []float64
	var st engine.EpochStats
	for i := 0; i < p.cfg.reps(2); i++ {
		t := now()
		st = e.RunEpoch()
		xs = append(xs, since(t))
	}
	return median(xs), st
}

// strategies runs every strategy on the workload's graph over the
// channel backend: the coverage for the strategies no workload pins,
// and the planner's regret on the simulated clock.
func (p *probes) strategies() error {
	p.chanEpoch = map[strategy.Kind]float64{}
	sim := map[strategy.Kind]float64{}
	best := 0.0
	for _, k := range strategy.Core {
		e, err := p.r.apt.BuildEngine(k)
		if err != nil {
			return err
		}
		sec, st := p.epochsOf(e)
		p.chanEpoch[k] = sec
		sim[k] = st.EpochTime()
		if best == 0 || sim[k] < best {
			best = sim[k]
		}
	}
	p.rep.set("engine.gdp_epoch_s", p.chanEpoch[strategy.GDP])
	p.rep.set("engine.nfp_epoch_s", p.chanEpoch[strategy.NFP])
	p.rep.set("engine.snp_epoch_s", p.chanEpoch[strategy.SNP])
	p.rep.set("engine.dnp_epoch_s", p.chanEpoch[strategy.DNP])
	p.rep.set("core.plan_regret_sim", sim[p.r.apt.Choice]/best)
	return nil
}

// scaling compares the two-rank GDP epoch with one rank doing all the
// work, with the prefetch pipeline on and off (the second core is free
// at world 1, so this is where overlap can show), and with the plain
// single-worker reference trainer.
func (p *probes) scaling() error {
	one := p.r.task
	one.Platform = hardware.WithDevices(hardware.SingleMachine8GPU(), 1, 1)
	one.Partition = nil
	w1 := func(pipeline bool) (float64, error) {
		t := one
		t.Pipeline = pipeline
		apt, err := core.New(t)
		if err != nil {
			return 0, err
		}
		e, err := apt.BuildEngine(strategy.GDP)
		if err != nil {
			return 0, err
		}
		sec, _ := p.epochsOf(e)
		return sec, nil
	}
	sync, err := w1(false)
	if err != nil {
		return err
	}
	piped, err := w1(true)
	if err != nil {
		return err
	}
	p.rep.set("engine.w1_epoch_s", sync)
	p.rep.set("engine.scaling_eff_w2", sync/(world*p.chanEpoch[strategy.GDP]))
	p.rep.set("engine.pipeline_gain_w1", sync/piped)

	t := &p.r.task
	ref := engine.NewReference(t.Graph, t.Feats, t.Labels, t.NewModel, t.NewOptimizer(), t.Sampling, t.Seed)
	ref.TrainEpoch(t.Seeds, t.BatchSize)
	start := now()
	ref.TrainEpoch(t.Seeds, t.BatchSize)
	p.rep.set("engine.reference_epoch_s", since(start))
	return nil
}

// ringMs is the fastest of three blocks of four lock-step allreduces
// of 1 Mi float32 (min-of-blocks is the stable estimator on a shared
// machine), in ms per op.
func (p *probes) ringMs(m *mesh, codec comm.ChunkCodec) float64 {
	elems, blocks := 1<<20, 3
	if p.cfg.quick {
		elems, blocks = 1<<14, 1
	}
	run := func(iters int) {
		comm.RunParallel(world, func(r int) {
			mat := tensor.Get(1, elems)
			for i := range mat.Data {
				mat.Data[i] = float32(r+1) * float32(i%17)
			}
			for it := 0; it < iters; it++ {
				tensor.Put(m.comms[r].AllReduceCodec(r, "bench", mat, 0, codec))
			}
			tensor.Put(mat)
		})
	}
	run(1)
	best := 0.0
	for block := 0; block < blocks; block++ {
		t := now()
		run(4)
		if s := since(t) / 4 * 1e3; block == 0 || s < best {
			best = s
		}
	}
	return best
}

// wire measures the comm and transport layers: the codec series on
// both backends, the workload-sized all-to-all, the payload codec, the
// measured wire, and the workload's own epoch on a TCP mesh against
// the channel backend.
func (p *probes) wire() error {
	t := &p.r.task
	ch := chanMesh(t.Platform)
	tcp, rendezvous, err := tcpMesh(t.Platform)
	if err != nil {
		return err
	}
	defer tcp.close()
	p.rep.set("transport.rendezvous_ms", rendezvous*1e3)

	for _, c := range []string{"fp32", "fp16", "int8"} {
		codec, err := transport.ChunkCodecByName(c)
		if err != nil {
			return err
		}
		p.rep.set("comm.ring_1m_"+c+"_chan_ms", p.ringMs(ch, codec))
		p.rep.set("comm.ring_1m_"+c+"_tcp_ms", p.ringMs(tcp, codec))
	}

	// The hidden-embedding exchange SNP would do for one real batch:
	// layer-1 destinations x hidden width, split between the ranks.
	blk := p.batch.Layer1()
	hid := tensor.New(blk.NumDst()/world+1, p.hiddenCols)
	wm := p.workloadMesh()
	a2a := make([]float64, world)
	comm.RunParallel(world, func(r int) {
		outs := make([]comm.Payload, world)
		for d := range outs {
			outs[d] = comm.Payload{Mat: hid}
		}
		a2a[r] = p.timeMs(20, func() { wm.comms[r].AllToAll(r, device.StageShuffle, outs) })
	})
	p.rep.set("comm.alltoall_ms", a2a[0])

	// The frame SNP ships per step: the subgraph and the embeddings.
	pay := comm.Payload{Mat: hid, Data: blk}
	frame, err := transport.AppendPayload(nil, pay)
	if err != nil {
		return err
	}
	mb := float64(len(frame)) / 1e6
	enc := p.timeMs(30, func() { frame, _ = transport.AppendPayload(frame[:0], pay) })
	var decErr error
	dec := p.timeMs(30, func() { _, decErr = transport.DecodePayload(frame) })
	p.ck.ok(decErr == nil, "payload round trip: %v", decErr)
	p.rep.set("transport.encode_mb_s", mb/(enc/1e3))
	p.rep.set("transport.decode_mb_s", mb/(dec/1e3))

	stats := make([]transport.WireStats, world)
	comm.RunParallel(world, func(r int) {
		stats[r] = transport.MeasureWire(tcp.comms[r], r, 1<<18, 3)
	})
	p.rep.set("transport.alltoall_mb_s", stats[0].AllToAllBps/1e6)
	p.rep.set("transport.call_us", stats[0].AllToAllCallSec*1e6)

	// The workload's strategy on the fresh TCP mesh, every rank with its
	// own APT, against the same strategy's channel epoch.
	engines := make([]*engine.Engine, world)
	errs := make([]error, world)
	secs := make([]float64, world)
	comm.RunParallel(world, func(r int) {
		apt, err := core.New(*t)
		if err != nil {
			errs[r] = err
			return
		}
		engines[r], errs[r] = apt.BuildEngineDistributed(p.k, tcp.trs[r], r)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	comm.RunParallel(world, func(r int) { secs[r], _ = p.epochsOf(engines[r]) })
	p.rep.set("transport.tcp_over_chan", secs[0]/p.chanEpoch[p.k])
	return nil
}

// checkpoints times a snapshot write and read of the workload's
// training state and sets it against the epoch it would stall.
func (p *probes) checkpoints() error {
	path := filepath.Join(p.cfg.outDir, p.j.w.name+".probe.aptc")
	defer os.Remove(path)
	var werr, rerr error
	write := p.timeMs(5, func() { werr = p.r.apt.CheckpointFile(path) })
	read := p.timeMs(5, func() { _, rerr = checkpoint.ReadFile(path) })
	p.ck.ok(werr == nil && rerr == nil, "checkpoint round trip: %v / %v", werr, rerr)
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	p.rep.set("checkpoint.write_ms", write)
	p.rep.set("checkpoint.read_ms", read)
	p.rep.set("checkpoint.bytes", float64(info.Size()))
	p.rep.set("checkpoint.stall_share", write/1e3/p.epochSec)
	return nil
}

// serving measures the serve layer: batch compute cost at three batch
// sizes through an inference worker, then the open- and closed-loop
// phases plus the reload phase against a server. The serving workload
// runs them on its own server, untraced first; the training workloads
// serve the model their training probe produced.
func (p *probes) serving() error {
	t := &p.r.task
	inf, err := engine.NewInferencer(engine.InferConfig{
		Platform: t.Platform, Graph: t.Graph, Store: p.store, Model: p.model,
		Sampling: t.Sampling, Workers: 1, Seed: t.Seed,
	})
	if err != nil {
		return err
	}
	for _, b := range []int{1, 16, 64} {
		seeds := t.Seeds[:min(b, len(t.Seeds))]
		ms := p.timeMs(20, func() {
			logits, _ := inf.Worker(0).Infer(seeds)
			tensor.Put(logits)
		})
		p.rep.set(fmt.Sprintf("serve.infer_ms_b%d", b), ms)
	}

	srv := p.j.srv
	seconds := p.cfg.seconds / 2 // five phases
	untracedLo := 0.0
	if p.j.w.serve {
		seconds = p.cfg.seconds
		plain := serveLoad(srv, p.r, p.cfg.seed, p.cfg.seconds/2, p.j.w.midRate, partsPerSetUp, nil, nil)
		p.ck.add(plain.checks)
		p.ck.ok(plain.accuracy >= p.cfg.minAccuracy(), "accuracy over answered nodes %.3f < %v", plain.accuracy, p.cfg.minAccuracy())
		untracedLo = bestLatency(plain.lo, 0.5)
	} else {
		srv, err = newServer(p.r, p.model)
		if err != nil {
			return err
		}
		defer srv.Close()
	}
	out := serveLoad(srv, p.r, p.cfg.seed+1, seconds, p.j.w.midRate, partsPerSetUp, p.model, p.tr)
	p.ck.add(out.checks)
	reload := pool(out.reload)
	p.ck.ok(reload.failed == 0, "%d requests failed across model reloads", reload.failed)

	if p.j.w.serve {
		// The serving workload's tracing overhead is on its own loop, in
		// the phase whose latency repeats.
		p.rep.set("bench.trace_overhead_share", bestLatency(out.lo, 0.5)/untracedLo-1)
	}
	p.rep.set("serve.lo_p50_ms", bestLatency(out.lo, 0.5))
	p.rep.set("serve.mid_p50_ms", bestLatency(out.mid, 0.5))
	p.rep.set("serve.mid_p95_ms", bestLatency(out.mid, 0.95))
	p.rep.set("serve.hi_p50_ms", bestLatency(out.hi, 0.5))
	p.rep.set("serve.hi_p95_ms", bestLatency(out.hi, 0.95))
	// All rounds of mid together: a stalled round owns these, so they
	// show what the best round above leaves out.
	lo, mid, sat := pool(out.lo), pool(out.mid), pool(out.sat)
	p.rep.set("serve.p99_ms", quantile(mid.latMs, 0.99))
	p.rep.set("serve.p999_ms", quantile(mid.latMs, 0.999))
	p.rep.set("serve.ok_share", float64(mid.good)/float64(mid.sent))
	p.rep.set("serve.sat_rps", bestRPS(out.sat))
	p.rep.set("serve.gen_late_ms", quantile(mid.lateMs, 0.99))
	p.rep.set("serve.max_inflight", float64(mid.maxInflight))
	p.rep.set("serve.backlog_end", float64(mid.backlogEnd))
	p.rep.set("serve.mean_batch_seeds_lo", lo.meanBatch())
	p.rep.set("serve.mean_batch_seeds_mid", mid.meanBatch())
	p.rep.set("serve.mean_batch_seeds_sat", sat.meanBatch())
	p.rep.set("serve.cache_hit_share", out.stats.CacheHitRate)
	p.rep.set("serve.rejected", float64(out.stats.Rejected))
	p.rep.set("serve.reload_ms", median(out.reloadSec)*1e3)
	p.rep.set("serve.reload_p95_ms", bestLatency(out.reload, 0.95))
	return nil
}

// nopObserver switches span collection on inside the program.
type nopObserver struct{}

func (nopObserver) ObserveSpans([]*obs.Track)    {}
func (nopObserver) ObserveMetrics(*obs.Registry) {}

// obsOverhead compares the workload's channel epoch with and without
// the program's own span collection attached to the task.
func (p *probes) obsOverhead() error {
	apt, err := core.New(p.r.task, obs.WithObserver(nopObserver{}))
	if err != nil {
		return err
	}
	e, err := apt.BuildEngine(p.k)
	if err != nil {
		return err
	}
	sec, _ := p.epochsOf(e)
	p.rep.set("obs.span_overhead_share", sec/p.chanEpoch[p.k]-1)
	return nil
}
