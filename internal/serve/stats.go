package serve

import (
	"time"

	"repro/internal/cache"
	"repro/internal/obs"
)

// Stats is the server's metrics facade, built on the shared obs
// registry: every serving metric is an apt_serve_* counter, gauge, or
// histogram, so the same numbers back both the JSON /stats snapshot
// and the text-exposition /metrics endpoint. Latencies go into the
// registry's log-scale histogram (microsecond octaves, ~19% worst-case
// relative error on reported percentiles), batch sizes into a linear
// one bucket per seed count. All methods are safe for concurrent use.
//
// Seeds counts every deduplicated batch seed, answered from the
// generation's answer table or computed; AnswerHits counts the former.
// The work metrics — feature reads and simulated seconds — count the
// computed seeds only: a table hit samples, loads and charges nothing.
type Stats struct {
	reg        *obs.Registry
	start      time.Time
	requests   *obs.Counter
	rejected   *obs.Counter
	seeds      *obs.Counter
	answerHits *obs.Counter
	batches    *obs.Counter
	latUs      *obs.Histogram
	batchSeeds *obs.Histogram
	reads      [cache.NumLocations]*obs.Counter
	simSec     func() float64
}

// newStats builds the serving metrics registry.
//
//apt:allow simclock serving uptime and latency are wall-clock metrics by design; training determinism is unaffected
func newStats(reg *obs.Registry, maxBatch int, simSec func() float64) *Stats {
	s := &Stats{
		reg:      reg,
		start:    time.Now(),
		requests: reg.Counter("apt_serve_requests_total", "Completed predict requests."),
		rejected: reg.Counter("apt_serve_rejected_total", "Requests refused at shutdown or on a full queue."),
		seeds:    reg.Counter("apt_serve_seeds_total", "Seed nodes answered (deduplicated per batch), answer-table hits included."),
		answerHits: reg.Counter("apt_serve_answer_hits_total",
			"Batch seeds answered from the model generation's answer table."),
		batches: reg.Counter("apt_serve_batches_total", "Coalesced micro-batches executed."),
		latUs: reg.LogHistogram("apt_serve_latency_us",
			"Request latency, microseconds, enqueue to completion."),
		batchSeeds: reg.LinearHistogram("apt_serve_batch_seeds",
			"Coalesced batch size in seeds.", maxBatch),
		simSec: simSec,
	}
	for loc := range s.reads {
		s.reads[loc] = reg.Counter(
			"apt_serve_feature_reads_"+locMetricName(cache.Location(loc))+"_total",
			"Feature rows served from "+cache.Location(loc).String()+".")
	}
	reg.GaugeFunc("apt_serve_uptime_seconds", "Wall-clock seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })
	if simSec != nil {
		reg.GaugeFunc("apt_serve_sim_seconds", "Simulated device seconds consumed by inference.", simSec)
	}
	return s
}

// locMetricName turns a cache location into a metric-name fragment
// (metric names cannot carry the '-' of Location.String()).
func locMetricName(l cache.Location) string {
	switch l {
	case cache.LocGPU:
		return "gpu"
	case cache.LocGPUQ:
		return "gpu_int8"
	case cache.LocPeerGPU:
		return "peer_gpu"
	case cache.LocLocalCPU:
		return "local_cpu"
	default:
		return "remote_cpu"
	}
}

// recordBatch folds one executed micro-batch into the registry.
func (s *Stats) recordBatch(latencies []time.Duration, seeds, hits int, ld cache.LoadStats) {
	s.batches.Inc()
	s.seeds.Add(int64(seeds))
	s.answerHits.Add(int64(hits))
	s.requests.Add(int64(len(latencies)))
	for _, d := range latencies {
		s.latUs.Observe(d.Microseconds())
	}
	s.batchSeeds.Observe(int64(seeds))
	for loc, n := range ld.Nodes {
		if n > 0 {
			s.reads[loc].Add(n)
		}
	}
}

// recordRejected counts a request refused at shutdown or on a full
// queue.
func (s *Stats) recordRejected() { s.rejected.Inc() }

// BatchBucket is one batch-size histogram entry.
type BatchBucket struct {
	Seeds int   `json:"seeds"`
	Count int64 `json:"count"`
}

// Snapshot is a point-in-time copy of the registry, JSON-ready for the
// /stats endpoint.
type Snapshot struct {
	UptimeSec float64 `json:"uptime_sec"`
	Requests  int64   `json:"requests"`
	Rejected  int64   `json:"rejected"`
	Seeds     int64   `json:"seeds"`
	// AnswerHits counts the seeds answered from the model generation's
	// answer table, a subset of Seeds.
	AnswerHits int64 `json:"answer_hits"`
	Batches    int64 `json:"batches"`
	// ThroughputRPS is completed requests per wall-clock second since
	// the server started.
	ThroughputRPS float64 `json:"throughput_rps"`
	// MeanBatchSeeds is the average coalesced batch size in seeds.
	MeanBatchSeeds float64 `json:"mean_batch_seeds"`
	MaxBatchSeeds  int64   `json:"max_batch_seeds"`
	// BatchHist lists non-empty batch-size buckets.
	BatchHist []BatchBucket `json:"batch_hist"`
	// Latency percentiles over all completed requests, milliseconds.
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
	MeanMs float64 `json:"mean_ms"`
	// CacheHitRate is the fraction of feature reads served from the
	// worker's own GPU cache, either tier (fp32 or int8).
	CacheHitRate float64 `json:"cache_hit_rate"`
	// FeatureReads counts feature rows read per location, by the
	// computed seeds only (table hits read none).
	FeatureReads map[string]int64 `json:"feature_reads"`
	// SimSeconds is the simulated device time consumed by inference,
	// which only computed seeds charge.
	SimSeconds float64 `json:"sim_seconds"`
}

// Snapshot captures the current registry state.
//
//apt:allow simclock uptime in the snapshot is a wall-clock serving metric by design
func (s *Stats) Snapshot() Snapshot {
	up := time.Since(s.start).Seconds()
	snap := Snapshot{
		UptimeSec:     up,
		Requests:      s.requests.Value(),
		Rejected:      s.rejected.Value(),
		Seeds:         s.seeds.Value(),
		AnswerHits:    s.answerHits.Value(),
		Batches:       s.batches.Value(),
		MaxBatchSeeds: s.batchSeeds.Max(),
		P50Ms:         float64(s.latUs.Quantile(0.50)) / 1e3,
		P95Ms:         float64(s.latUs.Quantile(0.95)) / 1e3,
		P99Ms:         float64(s.latUs.Quantile(0.99)) / 1e3,
		MaxMs:         float64(s.latUs.Max()) / 1e3,
		MeanMs:        s.latUs.Mean() / 1e3,
		FeatureReads:  make(map[string]int64, len(s.reads)),
	}
	if up > 0 {
		snap.ThroughputRPS = float64(snap.Requests) / up
	}
	snap.MeanBatchSeeds = s.batchSeeds.Mean()
	s.batchSeeds.NonEmptyBuckets(func(upper, count int64) {
		snap.BatchHist = append(snap.BatchHist, BatchBucket{Seeds: int(upper), Count: count})
	})
	var totalReads int64
	for loc, c := range s.reads {
		if n := c.Value(); n > 0 {
			snap.FeatureReads[cache.Location(loc).String()] = n
			totalReads += n
		}
	}
	if totalReads > 0 {
		hits := s.reads[cache.LocGPU].Value() + s.reads[cache.LocGPUQ].Value()
		snap.CacheHitRate = float64(hits) / float64(totalReads)
	}
	if s.simSec != nil {
		snap.SimSeconds = s.simSec()
	}
	return snap
}
