package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/strategy"
)

func tinyEnv() *Env {
	return NewEnv(Options{Scale: 0.04, Epochs: 1, Devices: 4, BatchSize: 32})
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.Defaults()
	if o.Scale != 1.0 || o.Devices != 8 || o.Epochs != 2 || o.BatchSize != 64 || o.CacheFraction != 0.08 {
		t.Errorf("defaults wrong: %+v", o)
	}
	o2 := Options{Scale: 0.5}.Defaults()
	if o2.Scale != 0.5 {
		t.Error("explicit scale overridden")
	}
}

func TestEnvCachesDatasetsAndPartitions(t *testing.T) {
	e := tinyEnv()
	d1 := e.Dataset("PS")
	d2 := e.Dataset("PS")
	if d1 != d2 {
		t.Error("dataset not cached")
	}
	p1 := e.Partition("PS", 4, 0)
	p2 := e.Partition("PS", 4, 0)
	if p1 != p2 {
		t.Error("partition not cached")
	}
}

func TestRunCaseProducesAllStrategies(t *testing.T) {
	e := tinyEnv()
	res, err := e.RunCase(e.task(taskConfig{abbr: "FS", hidden: 16}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) != 4 {
		t.Fatalf("got %d strategies", len(res.Stats))
	}
	for _, k := range strategy.Core {
		if res.Stats[k].EpochTime() <= 0 {
			t.Errorf("%v: zero epoch time", k)
		}
	}
	best, bestT := res.Best()
	for _, k := range strategy.Core {
		if res.Stats[k].EpochTime() < bestT {
			t.Errorf("Best() returned %v but %v is faster", best, k)
		}
	}
}

func TestTaskConfigKnobs(t *testing.T) {
	e := tinyEnv()
	// Cache sentinel disables the cache.
	task := e.task(taskConfig{abbr: "PS", hidden: 16, cacheFrac: -1})
	if task.CacheBytes != 0 {
		t.Error("cache sentinel ignored")
	}
	// Input-dim override keeps memory anchored to the preset.
	t64 := e.task(taskConfig{abbr: "PS", featDim: 64, hidden: 16})
	t512 := e.task(taskConfig{abbr: "PS", featDim: 512, hidden: 16})
	if t64.Platform.GPUMemBytes != t512.Platform.GPUMemBytes {
		t.Error("GPU memory should be anchored to the preset, not the config dim")
	}
	if t64.FeatDim != 64 || t512.FeatDim != 512 {
		t.Error("feat dim override lost")
	}
	// GAT configuration.
	g := e.task(taskConfig{abbr: "PS", model: "gat", hidden: 4, heads: 2, fanouts: []int{5, 5}})
	if !g.NewModel().NeedsDstInSrc() {
		t.Error("gat task did not build a GAT")
	}
}

func TestTable1Report(t *testing.T) {
	out, err := tinyEnv().Table1()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"GDP", "NFP", "SNP", "DNP", "partial-aggr"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 missing %q", want)
		}
	}
}

func TestTable3Report(t *testing.T) {
	out, err := tinyEnv().Table3()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"PS", "FS", "IM", "<1%", "paper"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table3 missing %q", want)
		}
	}
}

func TestFigure12Report(t *testing.T) {
	out, err := tinyEnv().Figure12()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "estimated") || !strings.Contains(out, "error") {
		t.Error("Figure12 report malformed")
	}
}

func TestFigure11ShowsPartitionSensitivity(t *testing.T) {
	out, err := tinyEnv().Figure11()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "random partitioning") || !strings.Contains(out, "slowdown") {
		t.Error("Figure11 report malformed")
	}
}

func TestExtensionHybridReport(t *testing.T) {
	out, err := tinyEnv().ExtensionHybrid()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Hybrid") {
		t.Error("hybrid report missing Hybrid row")
	}
}

func TestMeanStats(t *testing.T) {
	e := tinyEnv()
	res, err := e.RunCase(e.task(taskConfig{abbr: "FS", hidden: 16}))
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats[strategy.GDP]
	if st.EpochTime() != st.SampleSec+st.BuildSec+st.LoadSec+st.TrainSec+st.ShuffleSec {
		t.Error("meanStats broke the decomposition")
	}
}

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// wallClockLine matches the one report line that measures the host
// rather than the simulated platform.
var wallClockLine = regexp.MustCompile(`(?m)^dry-run \(plan\) wall time: .*\n`)

// TestAllExperimentsSmoke runs every experiment in All — the list
// aptbench dispatches on — end-to-end at a tiny scale (skipped with
// -short) and pins the reports against testdata/all.golden (rewrite it
// with -update). The golden is what `aptbench -exp all -scale 0.03
// -epochs 1 -devices 4 -batch 32 -o file` writes, minus the plan
// wall-time line: every other number is simulated, so any change to a
// report is a change to the reproduction.
func TestAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: full experiment sweep")
	}
	e := NewEnv(Options{Scale: 0.03, Epochs: 1, Devices: 4, BatchSize: 32})
	seen := map[string]bool{}
	var all strings.Builder
	for _, exp := range All {
		if seen[exp.ID] {
			t.Errorf("experiment id %q listed twice", exp.ID)
		}
		seen[exp.ID] = true
		out, err := exp.Run(e)
		if err != nil {
			t.Fatalf("%s: %v", exp.ID, err)
		}
		if len(out) < 50 {
			t.Errorf("%s: suspiciously short report", exp.ID)
		}
		all.WriteString(wallClockLine.ReplaceAllString(out, ""))
		all.WriteString("\n")
	}

	golden := filepath.Join("testdata", "all.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(all.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (rerun with -update to regenerate): %v", err)
	}
	if got := all.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("reports differ from %s at line %d:\n got: %s\nwant: %s\n(rerun with -update if the change is intended)", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("reports differ from %s in length: %d lines, want %d (rerun with -update if the change is intended)", golden, len(gl), len(wl))
	}
}

// TestExperimentIDsDocumented keeps README.md and EXPERIMENTS.md in
// step with All: every id is named in both, and every `-exp` argument
// either names (alone or in an a|b|c list) is an id aptbench accepts.
func TestExperimentIDsDocumented(t *testing.T) {
	valid := map[string]bool{"all": true}
	for _, x := range All {
		valid[x.ID] = true
	}
	word := regexp.MustCompile(`[a-z0-9-]+`)
	expArg := regexp.MustCompile(`-exp ([a-z0-9][a-z0-9|-]*)`)
	for _, name := range []string{"README.md", "EXPERIMENTS.md"} {
		raw, err := os.ReadFile("../../" + name)
		if err != nil {
			t.Fatal(err)
		}
		doc := string(raw)
		named := map[string]bool{}
		for _, w := range word.FindAllString(doc, -1) {
			named[w] = true
		}
		for _, x := range All {
			if !named[x.ID] {
				t.Errorf("%s does not mention experiment id %q", name, x.ID)
			}
		}
		for _, m := range expArg.FindAllStringSubmatch(doc, -1) {
			for _, id := range strings.Split(m[1], "|") {
				if !valid[id] {
					t.Errorf("%s names `-exp %s`, which aptbench does not accept", name, id)
				}
			}
		}
	}
}
