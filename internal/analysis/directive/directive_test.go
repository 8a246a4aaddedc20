package directive_test

import (
	"go/token"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/directive"

	// Populates directive.Known with the registered analyzer names.
	_ "repro/internal/analysis/aptlint"
)

func TestDirective(t *testing.T) {
	analysistest.Run(t, "testdata", directive.Analyzer, "directivedata")
}

// TestMalformedAllows covers the spellings whose findings land on the
// directive comment itself (see directivebad's comment for why the
// golden harness cannot express them).
func TestMalformedAllows(t *testing.T) {
	pkgs, err := analysis.LoadPackages(token.NewFileSet(), map[string]string{
		"directivebad": "testdata/src/directivebad",
	})
	if err != nil {
		t.Fatal(err)
	}
	findings, _, err := analysis.Run([]*analysis.Analyzer{directive.Analyzer}, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"//apt:allow needs an analyzer name and a reason",
		"//apt:allow simclock has no reason: suppressions must say why",
	}
	if len(findings) != len(want) {
		t.Fatalf("got %d findings, want %d: %v", len(findings), len(want), findings)
	}
	for i, f := range findings {
		if f.Suppressed || !strings.Contains(f.Message, want[i]) {
			t.Errorf("finding %d = %q (suppressed=%v), want substring %q", i, f.Message, f.Suppressed, want[i])
		}
	}
}
