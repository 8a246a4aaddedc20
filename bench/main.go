// Command bench is the repository's benchmark: four workloads, the
// end-to-end and per-layer metrics BENCHMARK.json declares, and the
// checks that the outputs are correct. See README.md in this
// directory.
//
//	bash bench/run.sh -seed N            every workload, each in a child process
//	bash bench/run.sh -seed N -trace 1   the traced run: per-layer metrics
//	bash bench/run.sh -repeat K          K sets of one seed; median / quartiles / spread, gated on the bounds
//	bash bench/run.sh -workload W -seed N -seconds S -trace 0|1
//	                                      one workload in this process; the
//	                                      last stdout line is its JSON result
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// result is the JSON object a single-workload run prints last.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload in-process and end with its JSON result")
		seed    = flag.Uint64("seed", 1, "seed of every generated input")
		seconds = flag.Float64("seconds", 0, "measured seconds per run (default: BENCHMARK.json run_seconds)")
		trace   = flag.Int("trace", 0, "1 = traced run (per-layer metrics), 0 = end-to-end metrics")
		repeat  = flag.Int("repeat", 0, "run the whole set this many times and gate the spread on the declared bounds")
	)
	flag.Parse()
	spec, root, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	cfg := &config{
		seed: *seed, seconds: *seconds, trace: *trace != 0,
		outDir: filepath.Join(root, "bench", "out"),
	}
	switch {
	case *name != "":
		os.Exit(runOne(spec, cfg, *name))
	case *repeat > 0:
		os.Exit(runRepeat(spec, cfg, *repeat))
	default:
		fmt.Println(environment())
		_, code := runSet(spec, cfg, true)
		os.Exit(code)
	}
}

// runOne is the single-workload mode the regression gate drives.
func runOne(spec *benchSpec, cfg *config, name string) int {
	w := findWorkload(name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
		return 2
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	rep, ck, err := runWorkload(spec, w, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
		return 1
	}
	rep.print(w.name)
	for _, n := range ck.notes {
		fmt.Printf("%-22s FAILED CHECK: %s\n", w.name, n)
	}
	fmt.Printf("%-22s %-34s %16.6g ratio  (%d failed of %d)\n", w.name, "fail_share",
		float64(ck.failed)/float64(ck.attempted), ck.failed, ck.attempted)
	if miss := rep.missing(); len(miss) > 0 {
		fmt.Fprintf(os.Stderr, "bench: %s did not report %v\n", name, miss)
		return 1
	}
	blob, err := json.Marshal(result{
		Correct: ck.failed == 0, Attempted: ck.attempted, Failed: ck.failed, Metrics: rep.vals,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(blob))
	return 0
}

// runWorkload dispatches to the untraced or the traced run.
func runWorkload(spec *benchSpec, w *workload, cfg *config) (*report, checks, error) {
	if cfg.trace {
		return runTraced(spec, w, cfg)
	}
	return runUntraced(spec, w, cfg)
}

// runUntraced measures the end-to-end metrics with tracing off. The
// workload is set up several times (setup_s is the median) and each
// set-up runs its share of the measured loop, cut into parts: blocks of
// epochs, rounds of the serving phases. Every timing is computed per
// part and the best part of the run is the one reported. Another tenant
// of the machine only ever adds time, for seconds or tens of seconds at
// a stretch, so the part it disturbed least is the closest to the
// program's own speed, and parts spread over the whole run are likelier
// to include one it left alone; a change to the program moves every
// part.
func runUntraced(spec *benchSpec, w *workload, cfg *config) (*report, checks, error) {
	rep := newReport(spec.EndToEnd)
	var ck checks
	var setupSec []float64
	var all timings
	n := cfg.setUps()
	for i := 0; i < n; i++ {
		j, sec, _, err := setUp(w, cfg, nil)
		if err != nil {
			return nil, ck, fmt.Errorf("set-up: %w", err)
		}
		setupSec = append(setupSec, sec)
		if w.serve {
			all.serve(j, cfg.seconds/float64(n), &ck)
		} else {
			err = all.train(j, max(cfg.timedEpochs(w)/n, 2), &ck)
		}
		if cerr := j.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, ck, err
		}
		// Drop this set-up before building the next, so peak RSS is that
		// of one live job, not of however many the collector had not yet
		// reached.
		j = nil
		runtime.GC()
	}
	rep.set("setup_s", median(setupSec))
	rep.set("op_p50_ms", slices.Min(all.p50))
	rep.set("op_tail_ms", slices.Min(all.tail))
	rep.set("seeds_per_s", slices.Max(all.rate))
	rep.set("peak_rss_mb", peakRSSMB())
	fmt.Printf("%-22s %d set-ups, %d parts; every part's\n", w.name, n, len(all.p50))
	fmt.Printf("%-22s   op_p50_ms   %.4g\n", w.name, all.p50)
	fmt.Printf("%-22s   op_tail_ms  %.4g\n", w.name, all.tail)
	fmt.Printf("%-22s   seeds_per_s %.5g\n", w.name, all.rate)
	return rep, ck, nil
}

// timings holds the three timings of every part of a run's measured
// loop. All of them are printed beside the reported best: a stall that
// happens once in a run is one bad part there.
type timings struct{ p50, tail, rate []float64 }

// train runs epochs timed epochs on a fresh set-up and adds them, cut
// into blocks, as parts.
func (a *timings) train(j *job, epochs int, ck *checks) error {
	out, err := j.train(epochs, nil)
	if err != nil {
		return err
	}
	ck.add(out.checks)
	for _, b := range cut(epochs, partsPerSetUp) {
		sec := out.epochSec[b[0]:b[1]]
		a.p50 = append(a.p50, median(sec)*1e3)
		a.tail = append(a.tail, quantile(sec, tailQ)*1e3)
		a.rate = append(a.rate, sum(out.epochSeeds[b[0]:b[1]])/sum(sec))
	}
	return nil
}

// serve runs seconds of the serving rounds against a fresh set-up's
// server and adds every round as a part: the median at mid, the p95 at
// lo, the requests answered per second at sat.
func (a *timings) serve(j *job, seconds float64, ck *checks) {
	out := serveLoad(j.srv, j.ranks[0], j.cfg.seed, seconds, j.w.midRate, partsPerSetUp, nil, nil)
	ck.add(out.checks)
	ck.ok(out.accuracy >= j.cfg.minAccuracy(), "accuracy over answered nodes %.3f < %v", out.accuracy, j.cfg.minAccuracy())
	a.p50 = append(a.p50, latencies(out.mid, 0.5)...)
	a.tail = append(a.tail, latencies(out.lo, 0.95)...)
	a.rate = append(a.rate, rates(out.sat)...)
}

// runSet runs every workload in its own child process and returns the
// parsed results by workload name.
func runSet(spec *benchSpec, cfg *config, echo bool) (map[string]result, int) {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return nil, 2
	}
	out := map[string]result{}
	code := 0
	for i := range workloads {
		w := &workloads[i]
		tr := "0"
		if cfg.trace {
			tr = "1"
		}
		cmd := exec.Command(exe, "-workload", w.name,
			"-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds), "-trace", tr)
		cmd.Stderr = os.Stderr
		blob, err := cmd.Output()
		lines := strings.Split(strings.TrimRight(string(blob), "\n"), "\n")
		if echo {
			fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			code = 1
			continue
		}
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: last line is not a result: %v\n", w.name, err)
			code = 1
			continue
		}
		if !res.Correct {
			code = 1
		}
		out[w.name] = res
	}
	return out, code
}

// exactCounts are the per-layer metrics the program counts rather than
// times: they must repeat exactly between runs of one seed.
var exactCounts = []string{"sample.edges_per_epoch", "cache.hit_share", "cache.host_bytes_per_epoch",
	"comm.hidden_bytes_per_epoch", "comm.graph_bytes_per_epoch", "comm.calls_per_epoch", "nn.loss_last"}

// runRepeat runs the whole set n times on one seed, so the spread is
// the machine's and not the seeds', and prints for every metric of
// every workload the median, the quartiles and the spread
// (interquartile range over median). An end-to-end spread beyond the
// metric's declared bound means a regression of that size could not be
// told from noise, and a count that differs between two runs of one
// seed means the program is not deterministic: either makes the exit
// code non-zero.
func runRepeat(spec *benchSpec, cfg *config, n int) int {
	fmt.Println(environment())
	declared := spec.EndToEnd
	if cfg.trace {
		declared = spec.PerLayer
	}
	series := map[string]map[string][]float64{}
	code := 0
	for i := 0; i < n; i++ {
		set, rc := runSet(spec, cfg, false)
		if rc != 0 {
			code = rc
		}
		for j := range workloads {
			wl := workloads[j].name
			res, ok := set[wl]
			if !ok {
				continue
			}
			if series[wl] == nil {
				series[wl] = map[string][]float64{}
			}
			for _, d := range declared {
				if v, ok := res.Metrics[d.Name]; ok {
					series[wl][d.Name] = append(series[wl][d.Name], v.Value)
				}
			}
		}
	}
	fmt.Printf("%-22s %-34s %12s %12s %12s %8s %8s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound")
	for i := range workloads {
		wl := workloads[i].name
		for _, d := range declared {
			xs := series[wl][d.Name]
			if len(xs) == 0 {
				continue
			}
			q1, q2, q3 := quartiles(xs)
			spread := 0.0
			if q2 != 0 {
				spread = (q3 - q1) / q2
			}
			verdict := ""
			if !cfg.trace && len(xs) > 1 && spread > d.Bound {
				verdict = "  SPREAD EXCEEDS BOUND"
				code = 1
			}
			if slices.Contains(exactCounts, d.Name) && slices.Max(xs) != slices.Min(xs) {
				verdict = "  COUNT DOES NOT REPEAT"
				code = 1
			}
			fmt.Printf("%-22s %-34s %12.6g %12.6g %12.6g %7.2f%% %7.0f%%%s\n",
				wl, d.Name, q2, q1, q3, 100*spread, 100*d.Bound, verdict)
		}
	}
	return code
}
