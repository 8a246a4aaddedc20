package serve

import (
	"time"

	"repro/internal/engine"
	"repro/internal/sample"
	"repro/internal/tensor"
)

// The adaptive micro-batcher. Each inference worker runs this loop:
// block for one request, then coalesce whatever else the queue holds
// under the dual trigger — the batch closes when its deduplicated seed
// count reaches MaxBatch OR the oldest request has waited MaxDelay,
// whichever comes first. Under light load the queue is empty and the
// timer path adds at most MaxDelay; under heavy load requests pile up
// behind busy workers and batches fill to MaxBatch without ever
// touching the timer, which is what amortizes sampling and feature
// loading across requests.

// worker drives one inference worker until the request channel closes
// (shutdown) or quit closes (this worker's generation was retired by a
// model reload). A batch claimed before either signal still executes
// to completion on this generation's model — retirement never drops a
// request.
func (s *Server) worker(w *engine.InferWorker, quit chan struct{}) {
	defer s.wg.Done()
	rs := sample.NewRequestSet()
	var batch []*pending
	for {
		select {
		case <-quit:
			return
		case p, ok := <-s.reqs:
			if !ok {
				return
			}
			batch = append(batch[:0], p)
			s.fill(&batch, len(p.nodes), p.enq)
			s.runBatch(w, rs, batch)
		}
	}
}

// fill coalesces more queued requests into batch until the dual
// trigger fires. seedsHint over-counts duplicates (dedup happens at
// execution), which only makes batches close slightly early.
//
//apt:allow simclock the max-delay trigger batches real client arrivals, so it must run on the wall clock
func (s *Server) fill(batch *[]*pending, seedsHint int, oldest time.Time) {
	if seedsHint >= s.cfg.MaxBatch {
		return
	}
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for seedsHint < s.cfg.MaxBatch {
		select {
		case q, ok := <-s.reqs:
			if !ok {
				return // closing: run what we have, the loop exits next
			}
			*batch = append(*batch, q)
			seedsHint += len(q.nodes)
		default:
			// Queue drained; wait out the remaining delay budget for
			// stragglers, measured from the oldest request's enqueue.
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
			case q, ok := <-s.reqs:
				if !ok {
					return
				}
				*batch = append(*batch, q)
				seedsHint += len(q.nodes)
			case <-timer.C:
				return
			}
		}
	}
}

// runBatch executes one coalesced micro-batch on worker w and
// completes every member request.
func (s *Server) runBatch(w *engine.InferWorker, rs *sample.RequestSet, batch []*pending) {
	rs.Reset()
	for _, p := range batch {
		rs.Add(p.nodes)
	}
	logits, ld := w.Infer(rs.Seeds())
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
	s.stats.recordBatch(latencies, rs.NumSeeds(), ld)
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
