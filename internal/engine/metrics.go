package engine

import (
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/device"
	"repro/internal/obs"
)

// WorkerStats accumulates per-device counters over one epoch. The
// planner's cost models consume the volume counters; the figures
// consume the stage times.
type WorkerStats struct {
	// Load aggregates feature-read statistics by location.
	Load cache.LoadStats
	// GraphA2ABytes / GraphBcastBytes count sampled-subgraph shipping
	// (T_build's communication part) by collective operator: SNP/DNP
	// use all-to-all, NFP broadcasts.
	GraphA2ABytes   int64
	GraphBcastBytes int64
	// HiddenA2ABytes / HiddenBcastBytes count hidden-embedding and
	// gradient shipping (T_shuffle) by operator.
	HiddenA2ABytes   int64
	HiddenBcastBytes int64
	// Collective call counts per stage; the cost model charges each
	// call's fixed latency (significant at scaled-down payload sizes).
	BuildA2ACalls   int64
	BuildBcastCalls int64
	ShufA2ACalls    int64
	ShufBcastCalls  int64
	// VirtualNodes counts remote virtual nodes created by this worker
	// (SNP: N_vs contributions; DNP: N_vd contributions).
	VirtualNodes int64
	// Layer1Dst counts layer-1 destination nodes processed (N_d).
	Layer1Dst int64
	// SampledEdges counts edges drawn by graph sampling.
	SampledEdges int64
	// SeedsProcessed counts seeds this worker trained on.
	SeedsProcessed int64
	// LossSum accumulates the worker's (globally scaled) loss
	// contributions; summing across workers gives mean batch loss.
	LossSum float64
	// GradCommSec is the modeled gradient-allreduce time of the
	// bucketed sync (sum over buckets); GradExposedSec is how much of
	// it the backward pass failed to hide — the part actually charged
	// to the train stage. Their ratio is the measured overlap the cost
	// models can learn from. Both zero outside bucketed real mode.
	GradCommSec    float64
	GradExposedSec float64
}

// GraphShuffleBytes is the total subgraph-shipping volume.
func (s WorkerStats) GraphShuffleBytes() int64 { return s.GraphA2ABytes + s.GraphBcastBytes }

// HiddenShuffleBytes is the total hidden-embedding volume.
func (s WorkerStats) HiddenShuffleBytes() int64 { return s.HiddenA2ABytes + s.HiddenBcastBytes }

func (s *WorkerStats) add(o *WorkerStats) {
	s.Load.Add(o.Load)
	s.GraphA2ABytes += o.GraphA2ABytes
	s.GraphBcastBytes += o.GraphBcastBytes
	s.HiddenA2ABytes += o.HiddenA2ABytes
	s.HiddenBcastBytes += o.HiddenBcastBytes
	s.BuildA2ACalls += o.BuildA2ACalls
	s.BuildBcastCalls += o.BuildBcastCalls
	s.ShufA2ACalls += o.ShufA2ACalls
	s.ShufBcastCalls += o.ShufBcastCalls
	s.VirtualNodes += o.VirtualNodes
	s.Layer1Dst += o.Layer1Dst
	s.SampledEdges += o.SampledEdges
	s.SeedsProcessed += o.SeedsProcessed
	s.LossSum += o.LossSum
	s.GradCommSec += o.GradCommSec
	s.GradExposedSec += o.GradExposedSec
}

// EpochStats is one epoch's outcome: the paper's time decomposition
// (stage time = max across devices, synchronous steps) plus the volume
// totals the cost models need.
type EpochStats struct {
	// SampleSec is graph-sampling time.
	SampleSec float64
	// BuildSec is computation-graph shuffle time (with SampleSec it
	// forms the figures' "sampling" bar and the cost model's T_build).
	BuildSec float64
	// LoadSec is feature-loading time (T_load).
	LoadSec float64
	// TrainSec is model-computation time (T_train).
	TrainSec float64
	// ShuffleSec is hidden-embedding shuffle time (T_shuffle; the
	// figures fold it into the training bar).
	ShuffleSec float64

	// Totals aggregates the per-worker counters; PerDevice keeps each
	// device's own counters (the cost model uses per-device maxima to
	// capture load imbalance under synchronous stages).
	Totals    WorkerStats
	PerDevice []WorkerStats
	// NumBatches is the synchronized step count.
	NumBatches int
	// MeasuredPipelinedSec is the epoch time actually tracked by the
	// pipelined engine (Config.Pipeline): the max across workers of the
	// overlapped sample/compute schedule on the simulated clocks. Zero
	// when the engine ran synchronously. It is always <= EpochTime().
	// In practice it also lies above the idealized PipelinedTime(), but
	// that is not guaranteed: PipelinedTime assumes three-way overlap of
	// sampling, loading and training, while the engine overlaps only
	// sampling against everything else.
	MeasuredPipelinedSec float64
	// MeanLoss is the average global mini-batch loss (real mode).
	MeanLoss float64
	// OOM reports whether any device overflowed its memory.
	OOM bool
	// WallSec is the measured wall-clock time of the epoch on this host
	// (RunEpochContext entry to its statistics), the clock a user waits
	// on beside the simulated one. Nothing planned or simulated reads it.
	WallSec float64
}

// EpochTime is the total epoch time under synchronous stages.
func (s EpochStats) EpochTime() float64 {
	return s.SampleSec + s.BuildSec + s.LoadSec + s.TrainSec + s.ShuffleSec
}

// SamplingBar and TrainBar group stages the way the paper's stacked
// figures do: subgraph shuffling counts as sampling, hidden shuffling
// as training.
func (s EpochStats) SamplingBar() float64 { return s.SampleSec + s.BuildSec }

// TrainBar groups training compute with hidden-embedding shuffling.
func (s EpochStats) TrainBar() float64 { return s.TrainSec + s.ShuffleSec }

// PipelinedTime estimates the epoch under pipelined execution
// (GNNLab/DSP-style): sampling, feature loading, and training of
// consecutive mini-batches overlap, so the epoch is gated by the
// slowest of the three pipelines rather than their sum. The engine's
// pipelined mode (Config.Pipeline) overlaps only sampling with the
// rest and reports that as MeasuredPipelinedSec; this estimate bounds
// what full three-way overlap could recover.
func (s EpochStats) PipelinedTime() float64 {
	stages := [3]float64{s.SamplingBar(), s.LoadSec, s.TrainBar()}
	mx := stages[0]
	for _, v := range stages[1:] {
		if v > mx {
			mx = v
		}
	}
	return mx
}

// String renders a one-line summary.
func (s EpochStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "epoch %.3fs (sample %.3f build %.3f load %.3f train %.3f shuffle %.3f)",
		s.EpochTime(), s.SampleSec, s.BuildSec, s.LoadSec, s.TrainSec, s.ShuffleSec)
	if s.MeasuredPipelinedSec > 0 {
		fmt.Fprintf(&b, " [pipelined %.3fs]", s.MeasuredPipelinedSec)
	}
	if s.OOM {
		b.WriteString(" [OOM]")
	}
	return b.String()
}

// RecordEpochMetrics folds one epoch's volumes and stage times into
// the metrics registry under the apt_engine_* namespace — the unified
// home of the epoch volume accounting the cost models consume.
// Counters accumulate across epochs; gauges hold the last epoch.
func RecordEpochMetrics(r *obs.Registry, st EpochStats) {
	if r == nil {
		return
	}
	r.Counter("apt_engine_epochs_total", "Training epochs completed.").Inc()
	r.Counter("apt_engine_steps_total", "Synchronized mini-batch steps executed.").Add(int64(st.NumBatches))
	r.Counter("apt_engine_seeds_total", "Training seeds processed.").Add(st.Totals.SeedsProcessed)
	r.Counter("apt_engine_sampled_edges_total", "Edges drawn by graph sampling.").Add(st.Totals.SampledEdges)
	r.Counter("apt_engine_layer1_dst_total", "Layer-1 destination nodes processed (N_d).").Add(st.Totals.Layer1Dst)
	r.Counter("apt_engine_virtual_nodes_total", "Remote virtual nodes created (SNP/DNP).").Add(st.Totals.VirtualNodes)
	r.Counter("apt_engine_graph_shuffle_bytes_total", "Sampled-subgraph shipping volume (T_build).").Add(st.Totals.GraphShuffleBytes())
	r.Counter("apt_engine_hidden_shuffle_bytes_total", "Hidden-embedding shipping volume (T_shuffle).").Add(st.Totals.HiddenShuffleBytes())
	r.Counter("apt_engine_collective_calls_total", "Collective operations issued.").Add(
		st.Totals.BuildA2ACalls + st.Totals.BuildBcastCalls + st.Totals.ShufA2ACalls + st.Totals.ShufBcastCalls)
	var reads, gpuReads, gpuQReads int64
	for loc, n := range st.Totals.Load.Nodes {
		reads += n
		switch cache.Location(loc) {
		case cache.LocGPU:
			gpuReads = n
		case cache.LocGPUQ:
			gpuQReads = n
		}
	}
	r.Counter("apt_engine_feature_reads_total", "Feature rows read.").Add(reads)
	r.Counter("apt_engine_feature_cache_hits_total", "Feature rows served by the local GPU cache (either tier).").Add(gpuReads + gpuQReads)
	r.Counter("apt_engine_feature_cache_hits_int8_total", "Feature rows served by the int8 warm tier.").Add(gpuQReads)

	r.Gauge("apt_engine_epoch_seconds", "Last epoch's simulated time (synchronous stages).").Set(st.EpochTime())
	r.Gauge("apt_engine_sample_seconds", "Last epoch's graph-sampling time.").Set(st.SampleSec)
	r.Gauge("apt_engine_build_seconds", "Last epoch's computation-graph shuffle time (T_build).").Set(st.BuildSec)
	r.Gauge("apt_engine_load_seconds", "Last epoch's feature-loading time (T_load).").Set(st.LoadSec)
	r.Gauge("apt_engine_train_seconds", "Last epoch's model-computation time (T_train).").Set(st.TrainSec)
	r.Gauge("apt_engine_shuffle_seconds", "Last epoch's hidden-embedding shuffle time (T_shuffle).").Set(st.ShuffleSec)
	r.Gauge("apt_engine_pipelined_seconds", "Last epoch's measured overlapped time (0 when synchronous).").Set(st.MeasuredPipelinedSec)
	r.Gauge("apt_engine_grad_comm_seconds", "Last epoch's modeled gradient-allreduce time (sum over buckets and workers).").Set(st.Totals.GradCommSec)
	r.Gauge("apt_engine_grad_exposed_seconds", "Last epoch's unhidden gradient-allreduce time (the share backward compute failed to cover).").Set(st.Totals.GradExposedSec)
	r.Gauge("apt_engine_mean_loss", "Last epoch's mean global mini-batch loss (real mode).").Set(st.MeanLoss)
	oom := 0.0
	if st.OOM {
		oom = 1
	}
	r.Gauge("apt_engine_oom", "1 when any device overflowed its memory last epoch.").Set(oom)
}

// collectStats folds worker counters and device clocks into EpochStats.
func (e *Engine) collectStats(numBatches int) EpochStats {
	var st EpochStats
	st.NumBatches = numBatches
	for _, w := range e.workers {
		st.Totals.add(w.stats)
		st.PerDevice = append(st.PerDevice, *w.stats)
		if w.pipelinedSec > st.MeasuredPipelinedSec {
			st.MeasuredPipelinedSec = w.pipelinedSec
		}
	}
	mx := e.Group.StageMax()
	st.SampleSec = mx.At(device.StageSample)
	st.BuildSec = mx.At(device.StageBuild)
	st.LoadSec = mx.At(device.StageLoad)
	st.TrainSec = mx.At(device.StageTrain)
	st.ShuffleSec = mx.At(device.StageShuffle)
	if numBatches > 0 {
		st.MeanLoss = st.Totals.LossSum / float64(numBatches)
	}
	st.OOM = e.Group.AnyOOM()
	return st
}
