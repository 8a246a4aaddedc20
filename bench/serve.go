package main

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/serve"
)

// latencyLimitMs is the serving latency limit: a request counts as
// good when it is answered correctly within this long of the moment it
// was due to be sent.
const latencyLimitMs = 25

const satClients = 128

// loadGen makes the serving inputs from the seed: Poisson arrival
// offsets and single-node requests whose node is Zipf(1.1)-distributed
// over the degree ranking, so hot nodes repeat (micro-batch dedup and
// the feature cache see shared work) while the tail stays cold.
type loadGen struct {
	rng    *rand.Rand
	zipf   *rand.Zipf
	ranked []graph.NodeID // nodes by descending degree
}

func newLoadGen(g *graph.Graph, seed uint64) *loadGen {
	n := g.NumNodes()
	ranked := make([]graph.NodeID, n)
	for v := range ranked {
		ranked[v] = graph.NodeID(v)
	}
	sort.Slice(ranked, func(a, b int) bool {
		da, db := g.Degree(ranked[a]), g.Degree(ranked[b])
		if da != db {
			return da > db
		}
		return ranked[a] < ranked[b]
	})
	rng := rand.New(rand.NewSource(int64(seed)))
	return &loadGen{rng: rng, zipf: rand.NewZipf(rng, 1.1, 1, uint64(n-1)), ranked: ranked}
}

func (l *loadGen) nodes(n int) []graph.NodeID {
	out := make([]graph.NodeID, n)
	for i := range out {
		out[i] = l.ranked[l.zipf.Uint64()]
	}
	return out
}

// arrivals draws Poisson arrival offsets at rate per second until dur.
func (l *loadGen) arrivals(rate, dur float64) []time.Duration {
	var out []time.Duration
	for t := l.rng.ExpFloat64() / rate; t < dur; t += l.rng.ExpFloat64() / rate {
		out = append(out, time.Duration(t*float64(time.Second)))
	}
	return out
}

// phaseOut is the outcome of one serving phase in one round.
type phaseOut struct {
	sent      int
	failed    int       // errored, rejected or wrong node set / label range
	good      int       // open loop: answered correctly within the latency limit of due time
	latMs     []float64 // due-time latency of every answered request
	lateMs    []float64 // how late the generator sent each request
	labelHits int       // answered requests whose label is the true class
	wall      float64
	// maxInflight and backlogEnd are requests sent and not yet
	// answered: the most seen, and the count when the schedule ended.
	maxInflight int64
	backlogEnd  int64
	// batches and batchSeeds are the micro-batches the server executed
	// during the phase and the seeds in them.
	batches, batchSeeds int64
}

// latencies is the q-quantile latency of every round of a phase that
// answered anything.
func latencies(rounds []phaseOut, q float64) []float64 {
	var per []float64
	for i := range rounds {
		if len(rounds[i].latMs) > 0 {
			per = append(per, quantile(rounds[i].latMs, q))
		}
	}
	return per
}

// rates is the requests answered per second in every round of a phase.
func rates(rounds []phaseOut) []float64 {
	per := make([]float64, len(rounds))
	for i := range rounds {
		per[i] = float64(len(rounds[i].latMs)) / rounds[i].wall
	}
	return per
}

// bestLatency is the lowest of the rounds' q-quantile latencies. A
// stall of the machine (a descheduled vCPU, another tenant's burst)
// owns the percentiles of the round it lands in; the best round is the
// one the machine left alone.
func bestLatency(rounds []phaseOut, q float64) float64 {
	per := latencies(rounds, q)
	if len(per) == 0 {
		return 0
	}
	return slices.Min(per)
}

// bestRPS is the highest of the rounds' answered requests per second.
func bestRPS(rounds []phaseOut) float64 { return slices.Max(rates(rounds)) }

// pool adds the rounds of a phase up: what the best round leaves out
// (whole-phase p99, the share answered in time) is read from the sum.
func pool(rounds []phaseOut) phaseOut {
	var out phaseOut
	for i := range rounds {
		r := &rounds[i]
		out.sent += r.sent
		out.failed += r.failed
		out.good += r.good
		out.latMs = append(out.latMs, r.latMs...)
		out.lateMs = append(out.lateMs, r.lateMs...)
		out.labelHits += r.labelHits
		out.wall += r.wall
		out.maxInflight = max(out.maxInflight, r.maxInflight)
		out.backlogEnd = max(out.backlogEnd, r.backlogEnd)
		out.batches += r.batches
		out.batchSeeds += r.batchSeeds
	}
	return out
}

// meanBatch is the seeds per micro-batch the server executed.
func (p *phaseOut) meanBatch() float64 {
	if p.batches == 0 {
		return 0
	}
	return float64(p.batchSeeds) / float64(p.batches)
}

// verdict checks one response: exactly the requested node, a label in
// range. It returns (valid, label correct).
func verdict(res []serve.Result, err error, node graph.NodeID, labels []int32, classes int) (bool, bool) {
	if err != nil || len(res) != 1 || res[0].Node != node || res[0].Label < 0 || res[0].Label >= classes {
		return false, false
	}
	return true, int32(res[0].Label) == labels[node]
}

// serveRun holds what the phases share.
type serveRun struct {
	srv     *serve.Server
	labels  []int32
	classes int
	tr      *tracer
	parent  int
}

// openLoop sends the schedule regardless of completions: one
// scheduling goroutine (the caller), one goroutine per request because
// Predict blocks. Each request is timed from when it was due.
func (s *serveRun) openLoop(name string, due []time.Duration, nodes []graph.NodeID) phaseOut {
	out := phaseOut{sent: len(due), lateMs: make([]float64, len(due))}
	lat := make([]float64, len(due))
	valid := make([]bool, len(due))
	hit := make([]bool, len(due))
	before := s.srv.Stats()
	root := s.tr.begin(s.parent, "serve", name)
	var inflight atomic.Int64
	var wg sync.WaitGroup
	start := now()
	for i := range due {
		at := start.Add(due[i])
		sleepUntil(at)
		out.lateMs[i] = since(at) * 1e3
		if n := inflight.Add(1); n > out.maxInflight {
			out.maxInflight = n
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := s.tr.begin(root, "serve", "predict")
			res, err := s.srv.Predict(nodes[i : i+1])
			lat[i] = since(at) * 1e3
			s.tr.end(sp)
			inflight.Add(-1)
			valid[i], hit[i] = verdict(res, err, nodes[i], s.labels, s.classes)
		}(i)
	}
	out.backlogEnd = inflight.Load()
	wg.Wait()
	out.wall = since(start)
	s.tr.end(root)
	for i := range due {
		if !valid[i] {
			out.failed++
			continue
		}
		out.latMs = append(out.latMs, lat[i])
		if hit[i] {
			out.labelHits++
		}
		if lat[i] <= latencyLimitMs {
			out.good++
		}
	}
	out.countBatches(before, s.srv.Stats())
	return out
}

// closedLoop runs clients that each wait for a reply before sending
// the next request, for dur seconds: the saturation phase.
func (s *serveRun) closedLoop(name string, streams [][]graph.NodeID, dur float64) phaseOut {
	var out phaseOut
	type tally struct {
		sent, failed, hits int
		lat                []float64
	}
	tallies := make([]tally, len(streams))
	before := s.srv.Stats()
	root := s.tr.begin(s.parent, "serve", name)
	var wg sync.WaitGroup
	start := now()
	deadline := start.Add(time.Duration(dur * float64(time.Second)))
	for c := range streams {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t := &tallies[c]
			for k := 0; now().Before(deadline); k++ {
				node := streams[c][k%len(streams[c])]
				sent := now()
				sp := s.tr.begin(root, "serve", "predict")
				res, err := s.srv.Predict([]graph.NodeID{node})
				s.tr.end(sp)
				t.sent++
				ok, hit := verdict(res, err, node, s.labels, s.classes)
				if !ok {
					t.failed++
					continue
				}
				t.lat = append(t.lat, since(sent)*1e3)
				if hit {
					t.hits++
				}
			}
		}(c)
	}
	wg.Wait()
	out.wall = since(start)
	s.tr.end(root)
	for _, t := range tallies {
		out.sent += t.sent
		out.failed += t.failed
		out.labelHits += t.hits
		out.latMs = append(out.latMs, t.lat...)
	}
	out.countBatches(before, s.srv.Stats())
	return out
}

func (p *phaseOut) countBatches(before, after serve.Snapshot) {
	p.batches = after.Batches - before.Batches
	p.batchSeeds = after.Seeds - before.Seeds
}

// serveOut is the serving loop's outcome: every phase once per round.
type serveOut struct {
	warm         phaseOut
	lo, mid, sat []phaseOut
	// hi is twice the mid rate; reload is the mid schedule again with a
	// blue/green model swap halfway. Only the traced run has them.
	hi, reload []phaseOut
	reloadSec  []float64
	checks     checks
	stats      serve.Snapshot
	accuracy   float64 // share of answered nodes labelled with their true class
}

// serveLoad runs the serving load against a started server for seconds.
// It opens with a closed-loop warm-up: a fresh server ramps up (11, 16,
// 23, then 27 k/s over its first seconds) while its pools grow to
// full-batch tensors. Then come the rounds, sharing the rest equally:
// lo, open loop at rate/2, and mid, open loop at rate, for a quarter of
// the round each, then sat, closed loop, for half of it (latencies
// repeat to 2-3% from half a second of requests; the rate, which is
// processor-bound, needs the longer look). A non-nil reload model
// makes it the traced run's plan: lo, mid, hi (2 x rate), reload and
// sat, a fifth of the round each. All inputs come from the seed.
func serveLoad(srv *serve.Server, r *rank, seed uint64, seconds, rate float64, rounds int, reload *nn.Model, tr *tracer) serveOut {
	gen := newLoadGen(r.task.Graph, seed^0x5e77e)
	s := &serveRun{srv: srv, labels: r.task.Labels, classes: r.ds.Classes, tr: tr}
	s.parent = tr.begin(0, "bench", "serve")
	defer tr.end(s.parent)
	var out serveOut
	open := func(name string, rate, dur float64) phaseOut {
		due := gen.arrivals(rate, dur)
		return s.openLoop(name, due, gen.nodes(len(due)))
	}
	streams := make([][]graph.NodeID, satClients)
	for c := range streams {
		streams[c] = gen.nodes(1024)
	}
	warmDur := min(1.5, seconds/4)
	out.warm = s.closedLoop("warm", streams, warmDur)
	round := (seconds - warmDur) / float64(rounds)
	openDur, satDur := round/4, round/2
	if reload != nil {
		openDur, satDur = round/5, round/5
	}

	for i := 0; i < rounds; i++ {
		out.lo = append(out.lo, open("lo", rate/2, openDur))
		out.mid = append(out.mid, open("mid", rate, openDur))
		if reload != nil {
			out.hi = append(out.hi, open("hi", 2*rate, openDur))

			swapAt := now().Add(time.Duration(openDur / 2 * float64(time.Second)))
			swapped := make(chan struct{})
			go func() {
				defer close(swapped)
				sleepUntil(swapAt)
				t := now()
				err := srv.Reload(reload)
				out.reloadSec = append(out.reloadSec, since(t))
				out.checks.ok(err == nil, "reload: %v", err)
			}()
			out.reload = append(out.reload, open("reload", rate, openDur))
			<-swapped
		}
		out.sat = append(out.sat, s.closedLoop("sat", streams, satDur))
	}

	answered, hits := 0, 0
	for _, phase := range [][]phaseOut{{out.warm}, out.lo, out.mid, out.hi, out.reload, out.sat} {
		p := pool(phase)
		out.checks.attempted += p.sent
		out.checks.failed += p.failed
		answered += len(p.latMs)
		hits += p.labelHits
	}
	if answered > 0 {
		out.accuracy = float64(hits) / float64(answered)
	}
	out.stats = srv.Stats()
	return out
}
