package aptlint

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestModuleClean is the acceptance gate: the full suite over the whole
// module must produce zero unsuppressed findings and zero stale allows.
// Suppressed findings are fine — they are the audited exceptions — but
// anything unsuppressed is a real violation, and an allow that
// suppresses nothing should be deleted.
func TestModuleClean(t *testing.T) {
	findings, allows := lint(t, moduleRoot(t))
	var bad []string
	suppressed := 0
	for _, f := range findings {
		if f.Suppressed {
			suppressed++
			continue
		}
		bad = append(bad, f.String())
	}
	for _, d := range allows {
		if !d.Used {
			bad = append(bad, fmt.Sprintf("%s: //apt:allow %s suppresses nothing; delete the stale directive", d.Pos, d.Analyzer))
		}
	}
	if len(bad) > 0 {
		t.Errorf("module is not aptlint-clean: %d problem(s):\n  %s",
			len(bad), strings.Join(bad, "\n  "))
	}
	if suppressed == 0 {
		// The repo carries audited wall-clock allows (serving, CLI
		// progress) — if none fired, suppression matching is broken.
		t.Errorf("expected suppressed findings from audited //apt:allow sites, got none")
	}
}

// TestViolationsFail proves the gate has teeth: a synthetic module with
// a wall-clock call in an engine-like package and a tensor.Get whose Put
// was deleted must produce exactly those unsuppressed findings.
func TestViolationsFail(t *testing.T) {
	dir := t.TempDir()
	writeModule(t, dir, map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.21\n",
		"internal/tensor/tensor.go": `package tensor

type Matrix struct{ Data []float32 }

func Get(r, c int) *Matrix { return &Matrix{Data: make([]float32, r*c)} }
func Put(m *Matrix)        {}
`,
		"internal/engine/engine.go": `package engine

import (
	"time"

	"tmpmod/internal/tensor"
)

func Step() float64 {
	start := time.Now()
	m := tensor.Get(4, 4)
	for i := range m.Data {
		m.Data[i] = 1
	}
	return time.Since(start).Seconds()
}
`,
	})

	findings, _ := lint(t, dir)
	counts := map[string]int{}
	for _, f := range findings {
		if f.Suppressed {
			t.Errorf("unexpected suppressed finding in synthetic module: %v", f)
			continue
		}
		counts[f.Analyzer]++
		t.Logf("%s", f)
	}
	if counts["simclock"] != 2 {
		t.Errorf("simclock findings = %d, want 2 (time.Now + time.Since)", counts["simclock"])
	}
	if counts["poolpair"] != 1 {
		t.Errorf("poolpair findings = %d, want 1 (Get with deleted Put)", counts["poolpair"])
	}
	if got, want := len(findings), 3; got != want {
		t.Errorf("total findings = %d, want %d", got, want)
	}
}

// TestMainExitCodes pins the CLI contract make lint depends on: a clean
// module exits 0; a finding or a stale //apt:allow exits 1 with a
// summary line; a module that does not load exits 2.
func TestMainExitCodes(t *testing.T) {
	const mod = "module tmpmod\n\ngo 1.21\n"
	cases := []struct {
		name string
		src  string
		code int
		out  string
	}{
		{"clean", "package p\n\nfunc F() int { return 1 }\n", 0, "0 stale"},
		{"finding", "package p\n\nimport \"time\"\n\nfunc Now() time.Time { return time.Now() }\n", 1, "1 unsuppressed finding"},
		{"stale allow", "package p\n\n//apt:allow simclock nothing here reads the clock\nfunc F() int { return 1 }\n", 1, "1 stale"},
		{"load failure", "package p\n\nfunc F() int { return undefined }\n", 2, "undefined"},
	}
	for _, c := range cases {
		dir := t.TempDir()
		writeModule(t, dir, map[string]string{"go.mod": mod, "p.go": c.src})
		var sb strings.Builder
		if code := Audit(&sb, dir); code != c.code {
			t.Errorf("%s: Audit = %d, want %d; output:\n%s", c.name, code, c.code, sb.String())
		}
		if !strings.Contains(sb.String(), c.out) {
			t.Errorf("%s: output missing %q:\n%s", c.name, c.out, sb.String())
		}
	}
}

// TestRealTreeMutations proves each analyzer catches a realistic fault
// in the code it exists for: it copies the module, applies one edit per
// analyzer to the real sources, loads the copy once, and requires each
// analyzer's finding on its edit's line and no other unsuppressed
// finding. An edit whose anchor has gone from the tree fails by name,
// so the table follows the code it mutates.
func TestRealTreeMutations(t *testing.T) {
	type edit struct{ old, new string }
	rows := []struct {
		analyzer string
		file     string
		edits    []edit // each old must occur exactly once
		at       string // occurs once in the edited file, on the finding's line
	}{
		{"simclock", "internal/engine/compute.go", []edit{
			{"import (\n", "import (\n\t\"time\"\n"},
			{"func (w *worker) chargeSparse(f float64) {\n", "func (w *worker) chargeSparse(f float64) {\n\t_ = time.Now()\n"},
		}, "_ = time.Now()"},
		{"hotalloc", "internal/engine/compute.go", []edit{
			{"func (w *worker) chargeDense(f float64) {\n", "func (w *worker) chargeDense(f float64) {\n\t_ = make([]int, int(f))\n"},
		}, "_ = make([]int, int(f))"},
		{"lockstep", "internal/engine/engine.go", []edit{
			{"func (e *Engine) stopAgreed(ctx context.Context, w *worker) bool {\n",
				"func (e *Engine) stopAgreed(ctx context.Context, w *worker) bool {\n\tif w.dev.ID == 0 { e.Comm.AnyTrue(w.dev.ID, false) }\n"},
		}, "if w.dev.ID == 0 { e.Comm.AnyTrue"},
		{"goownership", "internal/serve/serve.go", []edit{
			{"func (s *Server) start() {\n", "func (s *Server) start() {\n\tgo func() { s.stats.recordRejected() }()\n"},
		}, "go func() { s.stats.recordRejected() }()"},
		{"detrange", "internal/core/costmodel.go", []edit{
			{"func (cm *CostModel) Select(stats map[strategy.Kind]engine.EpochStats) []Estimate {\n",
				"func (cm *CostModel) Select(stats map[strategy.Kind]engine.EpochStats) []Estimate {\n\tvar total float64\n\tfor _, st := range stats {\n\t\ttotal += st.TrainSec\n\t}\n\t_ = total\n"},
		}, "total += st.TrainSec"},
		{"wirecontract", "internal/engine/wirecodec.go", []edit{
			{"func init() {\n", "func init() {\n\ttransport.RegisterData(9, (*layerCtx)(nil), transport.DataCodec{})\n"},
		}, "transport.RegisterData(9, (*layerCtx)(nil)"},
		{"directive", "internal/engine/compute.go", []edit{
			{"// wireInts returns", "//apt:hotpathh\n// wireInts returns"},
		}, "//apt:hotpathh"},
		{"poolpair", "internal/nn/model.go", []edit{
			{"\t\ttensor.Put(d)\n\t\td = dIn\n", "\t\td = dIn\n"},
		}, "d := tensor.Get(dLogits.Rows, dLogits.Cols)"},
	}

	root := t.TempDir()
	copyModule(t, moduleRoot(t), root)
	srcs := map[string]string{}
	for _, r := range rows {
		src, ok := srcs[r.file]
		if !ok {
			b, err := os.ReadFile(filepath.Join(root, r.file))
			if err != nil {
				t.Fatalf("%s: %v", r.analyzer, err)
			}
			src = string(b)
		}
		for _, e := range r.edits {
			if n := strings.Count(src, e.old); n != 1 {
				t.Fatalf("%s: anchor %q occurs %d times in %s, want once", r.analyzer, e.old, n, r.file)
			}
			src = strings.Replace(src, e.old, e.new, 1)
		}
		srcs[r.file] = src
	}
	for file, src := range srcs {
		if err := os.WriteFile(filepath.Join(root, file), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	type site struct {
		analyzer, file string
		line           int
	}
	want := map[site]bool{}
	for _, r := range rows {
		src := srcs[r.file]
		if n := strings.Count(src, r.at); n != 1 {
			t.Fatalf("%s: %q occurs %d times in edited %s, want once", r.analyzer, r.at, n, r.file)
		}
		line := 1 + strings.Count(src[:strings.Index(src, r.at)], "\n")
		want[site{r.analyzer, filepath.Join(root, r.file), line}] = false
	}

	findings, _ := lint(t, root)
	for _, f := range findings {
		if f.Suppressed {
			continue
		}
		s := site{f.Analyzer, f.Pos.Filename, f.Pos.Line}
		if _, ok := want[s]; !ok {
			t.Errorf("unexpected finding: %s", f)
			continue
		}
		want[s] = true
	}
	for s, seen := range want {
		if !seen {
			t.Errorf("%s: no finding at %s:%d", s.analyzer, s.file, s.line)
		}
	}
}

// lint loads the module at dir and runs the full suite over it once.
func lint(t *testing.T, dir string) ([]analysis.Finding, []*analysis.AllowDirective) {
	t.Helper()
	pkgs, err := analysis.LoadModule(dir)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	findings, allows, err := analysis.Run(All, pkgs)
	if err != nil {
		t.Fatalf("running the suite over %s: %v", dir, err)
	}
	return findings, allows
}

// writeModule writes files, keyed by slash path relative to dir.
func writeModule(t *testing.T, dir string, files map[string]string) {
	t.Helper()
	for rel, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// copyModule copies the module at src to dst, leaving out the
// directories the loader skips by their leading dot (.git among them).
func copyModule(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			if path != src && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
	if err != nil {
		t.Fatalf("copying the module: %v", err)
	}
}

// moduleRoot locates the repo's go.mod from the test's working
// directory (internal/analysis/aptlint → three levels up).
func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("../../..")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not at %s: %v", root, err)
	}
	return root
}
