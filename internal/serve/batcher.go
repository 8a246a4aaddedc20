package serve

import (
	"time"

	"repro/internal/engine"
	"repro/internal/sample"
	"repro/internal/tensor"
)

// The load-aware micro-batcher. Each inference worker runs this loop:
// block for one request, then coalesce whatever else the queue already
// holds. When the queue runs dry the worker keeps waiting for more
// requests only while every other worker is busy — at least one peer
// is executing a batch and none is idle — because only then does the
// wait cost nothing: no processor could start the batch any sooner.
// The wait ends at the first of: the batch's deduplicated seed count
// reaching MaxBatch, the oldest member having waited MaxDelay since it
// was enqueued, or a peer finishing its batch. Otherwise the batch
// goes at once. So under light load a request pays one inference and
// no timer; under heavy load requests pile up behind busy workers and
// batches fill towards MaxBatch, which is what amortizes sampling and
// feature loading across requests. A lone worker never waits: its
// batches are whatever queued during its previous one.

// worker drives inference worker i until the request channel closes
// (shutdown). Each batch runs on worker i of the generation live when
// the batch is filled, so a Reload takes effect at the next batch and
// every generation's worker i is driven by this one goroutine.
func (s *Server) worker(i int) {
	defer s.wg.Done()
	rs := sample.NewRequestSet()
	var batch []*pending
	for {
		p, ok := s.next()
		if !ok {
			return
		}
		if !p.live() {
			continue
		}
		batch = append(batch[:0], p)
		s.fill(&batch, len(p.nodes), p.enq)
		s.load.Lock()
		s.busy++
		s.load.Unlock()
		s.mu.RLock()
		w := s.inf.Worker(i)
		s.mu.RUnlock()
		s.runBatch(w, rs, batch)
		s.batchFinished()
	}
}

// next claims the worker's next request. A worker blocked on an empty
// queue counts as idle, which tells filling peers not to wait. ok is
// false at shutdown.
func (s *Server) next() (p *pending, ok bool) {
	select {
	case p, ok = <-s.reqs:
		return p, ok
	default:
	}
	s.load.Lock()
	s.idle++
	s.load.Unlock()
	p, ok = <-s.reqs
	s.load.Lock()
	s.idle--
	s.load.Unlock()
	return p, ok
}

// batchFinished marks the end of one worker's batch and wakes every
// worker waiting behind it: the channel is closed, never sent on, so no
// waiter can miss the wake-up and none can take it from another.
func (s *Server) batchFinished() {
	s.load.Lock()
	s.busy--
	close(s.finished)
	s.finished = make(chan struct{})
	s.load.Unlock()
}

// peersBusy reports whether a worker whose queue ran dry should wait
// for more requests: some peer is executing a batch and none is idle.
func (s *Server) peersBusy() bool {
	s.load.Lock()
	defer s.load.Unlock()
	return s.busy > 0 && s.idle == 0
}

// fill coalesces more queued requests into batch until the trigger
// fires. seedsHint over-counts duplicates (dedup happens at execution),
// which only makes batches close slightly early.
//
//apt:allow simclock the max-delay trigger batches real client arrivals, so it must run on the wall clock
func (s *Server) fill(batch *[]*pending, seedsHint int, oldest time.Time) {
	// A peer finishing at any point after this batch opened ends the wait.
	s.load.Lock()
	peerDone := s.finished
	s.load.Unlock()
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for seedsHint < s.cfg.MaxBatch {
		var q *pending
		ok := true
		select {
		case q, ok = <-s.reqs:
		default:
			// Queue drained: wait only behind busy peers, and at most
			// until the oldest member has waited MaxDelay since enqueue.
			if !s.peersBusy() {
				return
			}
			wait := s.cfg.MaxDelay - time.Since(oldest)
			if wait <= 0 {
				return
			}
			if timer == nil {
				timer = time.NewTimer(wait)
			} else {
				timer.Reset(wait)
			}
			select {
			case q, ok = <-s.reqs:
			case <-timer.C:
				return
			case <-peerDone:
				return
			}
		}
		if !ok {
			return // closing: run what we have, the loop exits next
		}
		if q.live() {
			*batch = append(*batch, q)
			seedsHint += len(q.nodes)
		}
	}
}

// live reports whether p's caller is still waiting. A request whose
// context is already done is completed with ctx.Err() instead of being
// executed, and is counted nowhere.
func (p *pending) live() bool {
	if err := p.ctx.Err(); err != nil {
		p.err = err
		close(p.done)
		return false
	}
	return true
}

// runBatch executes one coalesced micro-batch on worker w and
// completes every member request. Seeds the generation has answered
// before come from its answer table; only the rest are computed.
func (s *Server) runBatch(w *engine.InferWorker, rs *sample.RequestSet, batch []*pending) {
	rs.Reset()
	for _, p := range batch {
		rs.Add(p.nodes)
	}
	logits, ld, hits := w.Answer(rs.Seeds())
	latencies := make([]time.Duration, len(batch))
	//apt:allow simclock request latency is a wall-clock serving metric by design
	now := time.Now()
	for i, p := range batch {
		rows := rs.Rows(i)
		res := make([]Result, len(p.nodes))
		for j, r := range rows {
			scores := append([]float32(nil), logits.Row(int(r))...)
			res[j] = Result{Node: p.nodes[j], Label: argmax(scores), Scores: scores}
		}
		p.res = res
		latencies[i] = now.Sub(p.enq)
	}
	tensor.Put(logits)
	// Count the batch before releasing its callers: a client that has
	// its answer must find it in Stats().
	s.stats.recordBatch(latencies, rs.NumSeeds(), hits, ld)
	for _, p := range batch {
		close(p.done)
	}
}

// argmax returns the index of the largest score (lowest index wins
// ties, matching nn.Accuracy).
func argmax(scores []float32) int {
	best := 0
	for i, v := range scores {
		if v > scores[best] {
			best = i
		}
	}
	return best
}
