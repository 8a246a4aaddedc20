package main

import (
	"regexp"
	"testing"
)

// smokeConfig shrinks every workload to a graph of a few thousand
// nodes, two timed epochs and sub-second serving phases, so the whole
// benchmark runs under plain `go test`.
func smokeConfig(t *testing.T, trace bool) *config {
	return &config{
		seed: 3, seconds: 0.8, trace: trace, quick: true,
		outDir: t.TempDir(),
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// TestSmoke runs all four workloads untraced and traced and checks the
// contract between the program and BENCHMARK.json: every declared
// metric is reported, under a well-formed name, with its declared
// unit, and no operation fails.
func TestSmoke(t *testing.T) {
	spec, _, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, d := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !nameRE.MatchString(d.Name) || d.Unit == "" || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("malformed declaration %+v", d)
		}
	}
	for _, d := range spec.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for i, w := range spec.Workloads {
		if findWorkload(w.Name) == nil || workloads[i].name != w.Name {
			t.Errorf("workload %q of BENCHMARK.json is not workload %d of the program", w.Name, i)
		}
	}

	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				rep, ck, err := runWorkload(spec, w, smokeConfig(t, trace))
				if err != nil {
					t.Fatalf("trace=%v: %v", trace, err)
				}
				if ck.failed != 0 || ck.attempted < 1 {
					t.Errorf("trace=%v: %d of %d operations failed: %v", trace, ck.failed, ck.attempted, ck.notes)
				}
				if miss := rep.missing(); len(miss) > 0 {
					t.Errorf("trace=%v: declared metrics not reported: %v", trace, miss)
				}
				if !trace || w.name != "fs-snp-sage-tcp" {
					continue
				}
				// Counts the program makes must repeat exactly for a seed.
				again, _, err := runWorkload(spec, w, smokeConfig(t, true))
				if err != nil {
					t.Fatal(err)
				}
				for _, name := range exactCounts {
					if a, b := rep.vals[name].Value, again.vals[name].Value; a != b {
						t.Errorf("%s: %v then %v for one seed", name, a, b)
					}
				}
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
