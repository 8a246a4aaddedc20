package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// quantile is the q-quantile of xs by linear interpolation between
// order statistics; xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQ is the percentile reported as the tail of a part's epochs: a
// part holds two to ten of them, so p80 is interpolated between its
// slowest two or three.
const tailQ = 0.80

// cut splits n consecutive samples into at most k parts of near-equal
// length and returns each part's [from, to) bounds.
func cut(n, k int) [][2]int {
	k = min(k, n)
	out := make([][2]int, k)
	for i := range out {
		out[i] = [2]int{i * n / k, (i + 1) * n / k}
	}
	return out
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// quartiles follows Python's statistics.quantiles(xs, n=4) (exclusive
// method), the rule the regression gate uses for run-to-run spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// metricSpec is one declared metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the program reads: it is the
// single declaration of metric names, units, directions and bounds.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the working directory (the repo
// root under bench/run.sh) or its parent (`go test` and `go run -C
// bench .` run in bench/), and returns it with the directory it was in.
func loadSpec() (*benchSpec, string, error) {
	var blob []byte
	var root string
	var err error
	for _, root = range []string{".", ".."} {
		if blob, err = os.ReadFile(filepath.Join(root, "BENCHMARK.json")); err == nil {
			break
		}
	}
	if err != nil {
		return nil, "", fmt.Errorf("BENCHMARK.json not found from the working directory: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(blob, &s); err != nil {
		return nil, "", fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, root, nil
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects the metrics of one run in declaration order.
type report struct {
	declared []metricSpec
	vals     map[string]value
}

func newReport(declared []metricSpec) *report {
	return &report{declared: declared, vals: map[string]value{}}
}

// set records a metric. Reporting a name BENCHMARK.json does not
// declare is a bug in the benchmark, so it panics.
func (r *report) set(name string, v float64) {
	for _, d := range r.declared {
		if d.Name == name {
			r.vals[name] = value{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("bench: metric " + name + " is not declared in BENCHMARK.json")
}

// missing lists declared metrics the run did not report.
func (r *report) missing() []string {
	var out []string
	for _, d := range r.declared {
		if _, ok := r.vals[d.Name]; !ok {
			out = append(out, d.Name)
		}
	}
	return out
}

// print writes "name value unit" lines in declaration order.
func (r *report) print(workload string) {
	for _, d := range r.declared {
		if v, ok := r.vals[d.Name]; ok {
			fmt.Printf("%-22s %-34s %16.6g %s\n", workload, d.Name, v.Value, v.Unit)
		}
	}
}

// environment is the header -repeat and the default mode print, so a
// recorded number can be traced to the machine and commit it came from.
func environment() string {
	cpu := "unknown"
	if blob, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(blob), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return fmt.Sprintf("# env nproc=%d GOMAXPROCS=%d go=%s cpu=%q commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpu, commit)
}
