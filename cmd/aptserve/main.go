// Command aptserve is the online inference daemon: it loads (or
// trains) a GNN model over a synthetic dataset preset and serves
// predictions over HTTP/JSON with adaptive micro-batching.
//
// Serve a checkpoint trained by aptrun (same job flags — the two
// binaries register the same set, internal/job):
//
//	aptrun   -data FS -model sage -hidden 32 -epochs 5 -ckpt-dir /tmp/fs
//	aptserve -data FS -model sage -hidden 32 -checkpoint /tmp/fs/snapshot.aptc -addr :8399
//
//	curl -s localhost:8399/predict -d '{"nodes":[1,2,3]}'
//	curl -s localhost:8399/stats     # JSON snapshot
//	curl -s localhost:8399/metrics   # text exposition format
//	curl -s localhost:8399/healthz
//	go tool pprof localhost:8399/debug/pprof/profile?seconds=10
//
// A running daemon hot-swaps its model without dropping requests when
// the checkpoint file is rewritten (e.g. by a fresh aptrun) and either
// `curl -X POST localhost:8399/reload` or SIGHUP arrives. -checkpoint
// takes a training snapshot (the rolling file aptrun -ckpt-dir D
// writes, D/snapshot.aptc); it also carries the training run's access
// frequencies, which fill the serving caches by the paper's hotness
// rule instead of by degree. A /predict request whose client has gone
// before a worker collects it is dropped, never executed, and one whose
// body is over 1 MiB (about 100 k node ids) is answered 413.
//
// Without -checkpoint the model is trained in-process first
// (-train-epochs). -fanout 0 serves full neighborhoods; any fanout
// serves deterministic answers, because the neighbourhood draws are
// keyed by the node (a hub's answer averages up to four), so each
// loaded model computes a node once and keeps the answer for every
// later request. The daemon's own profiles are under /debug/pprof/
// (net/http/pprof). To benchmark the serving path use the repo's load
// generator: `bash bench/run.sh -workload serve-ps-zipf-open`.
//
// A flag set that cannot serve (-train-epochs 0, -cache-frac outside
// [0, 1], -max-batch 0, an -addr that cannot be bound, a job flag the
// job cannot be built from) exits 2 with one line naming the flag,
// before anything is trained: -addr is bound first.
//
// Every endpoint is open to anyone who can reach -addr: /reload swaps
// the model, and /debug/pprof/ shows the command line (checkpoint
// paths) and the heap and runs CPU profiles and execution traces of
// any length, which slow the daemon while they run. The default :8399
// listens on every interface; serve on loopback (-addr
// 127.0.0.1:8399) or behind a trusted network.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/job"
	"repro/internal/sample"
	"repro/internal/serve"
)

func main() {
	spec := job.Flags(flag.CommandLine)
	var (
		addr    = flag.String("addr", ":8399", "HTTP listen address")
		ckpt    = flag.String("checkpoint", "", "load model parameters from this aptrun checkpoint")
		trainEp = flag.Int("train-epochs", 3, "in-process training epochs when no -checkpoint is given")
		workers = flag.Int("workers", 0, "inference workers (0 = one per device)")
		maxB    = flag.Int("max-batch", 64, "micro-batcher seed budget per mini-batch")
		maxD    = flag.Duration("max-delay", 2*time.Millisecond, "upper bound on waiting for more requests while every other worker is busy")
		cacheFr = flag.Float64("cache-frac", 0.08, "per-device feature cache, as a fraction of total feature bytes")
	)
	flag.Parse()
	if err := spec.Check(); err != nil {
		usage(err.Error())
	}
	// Flags that cannot serve are refused before anything is built or
	// trained; the listener is bound first for the same reason.
	var bad string
	switch {
	case *trainEp < 1:
		bad = fmt.Sprintf("-train-epochs %d: need at least one epoch", *trainEp)
	case !(*cacheFr >= 0 && *cacheFr <= 1):
		bad = fmt.Sprintf("-cache-frac %v outside [0, 1]", *cacheFr)
	case *maxB < 1:
		bad = fmt.Sprintf("-max-batch %d: need at least one seed", *maxB)
	case *workers < 0:
		bad = fmt.Sprintf("-workers %d is negative", *workers)
	case *workers > spec.Devices:
		bad = fmt.Sprintf("-workers %d exceeds -devices %d", *workers, spec.Devices)
	case *maxD < 0:
		bad = fmt.Sprintf("-max-delay %v is negative", *maxD)
	}
	if bad != "" {
		usage(bad)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		usage(fmt.Sprintf("-addr %s: %v", *addr, err))
	}
	ds, task, err := spec.Build(true, 7, func(s *dataset.Spec) { s.HomophilyDegree = 6 })
	if err != nil {
		usage(err.Error()) // every job the flags cannot describe
	}
	task.CacheBytes = ds.CacheBytesFraction(*cacheFr)
	if spec.Fanout <= 0 {
		task.Sampling.Method = sample.Full
	}

	// Obtain a trained model and the training run's dry-run access
	// frequencies — from aptrun's snapshot, or by training in-process
	// with APT's automatic strategy selection. The frequencies fill
	// the serving caches by the paper's hotness rule; a snapshot saved
	// without them falls back to degree.
	m := task.NewModel()
	var freq []int64
	if *ckpt != "" {
		freq, err = checkpoint.LoadModelFreq(m, *ckpt)
		fatal(err)
		fmt.Printf("loaded checkpoint %s (%d params)\n", *ckpt, m.NumParamElements())
	} else {
		apt, err := core.New(task)
		fatal(err)
		choice, err := apt.Plan()
		fatal(err)
		fmt.Printf("training %d epochs in-process (APT selected %v)...\n", *trainEp, choice)
		res, err := apt.TrainWith(choice, *trainEp)
		fatal(err)
		m = res.Model
		freq = apt.DryRunStats().Freq
		fmt.Printf("trained: mean loss %.4f (last epoch)\n", res.Epochs[len(res.Epochs)-1].MeanLoss)
	}
	if freq != nil {
		fmt.Println("feature caches: hotness policy (the training run's access frequencies)")
	} else {
		fmt.Println("feature caches: degree policy (no access frequencies in the snapshot)")
	}

	srv, err := serve.New(serve.Config{
		Graph: ds.Graph, Feats: ds.Feats, Model: m,
		Sampling: task.Sampling, Platform: task.Platform, Workers: *workers,
		MaxBatch: *maxB, MaxDelay: *maxD,
		CacheBytes: task.CacheBytes,
		Freq:       freq,
		Seed:       11,
		NewModel:   task.NewModel,
		ReloadPath: *ckpt,
	})
	fatal(err)
	serveHTTP(srv, ln)
}

// predictRequest is the /predict request body.
type predictRequest struct {
	Nodes []graph.NodeID `json:"nodes"`
}

// predictResponse is the /predict response body.
type predictResponse struct {
	Results   []serve.Result `json:"results"`
	LatencyMs float64        `json:"latency_ms"`
}

// maxPredictBody bounds a /predict body at 1 MiB, about 100 k node ids:
// a larger one is answered 413 before anything is decoded past the
// limit or asked of the server.
const maxPredictBody = 1 << 20

// newMux routes the daemon's endpoints to srv. A /predict request
// runs under its HTTP request's context, so one whose client has gone
// before a worker collects it is never executed.
//
//apt:allow simclock the per-request latency_ms field is a wall-clock serving metric
func newMux(srv *serve.Server) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/predict", func(w http.ResponseWriter, r *http.Request) {
		var req predictRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxPredictBody)).Decode(&req); err != nil {
			status := http.StatusBadRequest
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				status = http.StatusRequestEntityTooLarge
			}
			http.Error(w, "bad request: "+err.Error(), status)
			return
		}
		start := time.Now()
		res, err := srv.PredictContext(r.Context(), req.Nodes)
		if err != nil {
			predictError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(predictResponse{
			Results:   res,
			LatencyMs: time.Since(start).Seconds() * 1e3,
		})
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(srv.Stats())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		srv.Metrics().WriteExposition(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/reload", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		if err := srv.ReloadCheckpoint(); err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"model_version\":%d}\n", srv.ModelVersion())
	})
	return mux
}

// predictError answers a failed /predict: 404 for a node outside the
// graph, 503 for everything else (a full queue, a closing server, a
// cancelled request) — with Retry-After when the queue was full.
func predictError(w http.ResponseWriter, err error) {
	status := http.StatusServiceUnavailable
	var unknown *serve.UnknownNodeError
	if errors.As(err, &unknown) {
		status = http.StatusNotFound
	}
	if errors.Is(err, serve.ErrOverloaded) {
		w.Header().Set("Retry-After", "1")
	}
	http.Error(w, err.Error(), status)
}

// serveHTTP runs the HTTP daemon on ln until SIGINT/SIGTERM, then
// drains.
func serveHTTP(srv *serve.Server, ln net.Listener) {
	hs := &http.Server{Handler: newMux(srv)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
		for s := range sig {
			if s == syscall.SIGHUP {
				// Hot-swap from the checkpoint file, keep serving.
				if err := srv.ReloadCheckpoint(); err != nil {
					fmt.Fprintln(os.Stderr, "aptserve: reload:", err)
				} else {
					fmt.Printf("reloaded checkpoint (model version %d)\n", srv.ModelVersion())
				}
				continue
			}
			break
		}
		fmt.Println("\nshutting down...")
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		srv.Close()
	}()
	fmt.Printf("aptserve listening on %s (%d workers)\n", ln.Addr(), srv.NumWorkers())
	if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
		fatal(err)
	}
	<-done
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "aptserve:", err)
		os.Exit(1)
	}
}

// usage refuses a flag set before anything is built or trained.
func usage(msg string) {
	fmt.Fprintln(os.Stderr, "aptserve:", msg)
	os.Exit(2)
}
