// Package aptlint assembles the repo's analyzer suite and drives it —
// the library behind cmd/aptlint and the module-wide cleanliness test.
package aptlint

import (
	"fmt"
	"io"

	"repro/internal/analysis"
	"repro/internal/analysis/detrange"
	"repro/internal/analysis/directive"
	"repro/internal/analysis/goownership"
	"repro/internal/analysis/hotalloc"
	"repro/internal/analysis/lockstep"
	"repro/internal/analysis/poolpair"
	"repro/internal/analysis/simclock"
	"repro/internal/analysis/wirecontract"
)

// All is the full analyzer suite, in reporting-name order. Each entry
// guards one structural invariant — see DESIGN.md decisions 14 and 19.
var All = []*analysis.Analyzer{
	detrange.Analyzer,
	directive.Analyzer,
	goownership.Analyzer,
	hotalloc.Analyzer,
	lockstep.Analyzer,
	poolpair.Analyzer,
	simclock.Analyzer,
	wirecontract.Analyzer,
}

func init() {
	// Teach the directive validator which analyzer names //apt:allow
	// may reference.
	for _, a := range All {
		directive.Known[a.Name] = true
	}
}

// Audit is aptlint's one mode: it loads the module at dir once, runs
// the suite over it, prints every unsuppressed finding, then prints
// every //apt:allow directive with its analyzer, justification, and
// status: "in-use" when the directive still suppresses a live finding,
// "STALE" when the finding it excused no longer fires (staleness is
// scoped to the allowing function — see analysis.AllowsForFile). It
// returns the process exit code: 0 clean, 1 on any unsuppressed
// finding or stale allow, 2 on a load or analyzer failure.
func Audit(w io.Writer, dir string) int {
	pkgs, err := analysis.LoadModule(dir)
	if err != nil {
		fmt.Fprintln(w, "aptlint:", err)
		return 2
	}
	findings, allows, err := analysis.Run(All, pkgs)
	if err != nil {
		fmt.Fprintln(w, "aptlint:", err)
		return 2
	}
	bad := analysis.Print(w, findings)
	if bad > 0 {
		fmt.Fprintf(w, "aptlint: %d unsuppressed finding(s)\n", bad)
	}
	stale := 0
	for _, d := range allows {
		status := "in-use"
		if !d.Used {
			status = "STALE"
			stale++
		}
		fmt.Fprintf(w, "%-7s %s: //apt:allow %s %s\n", status, d.Pos, d.Analyzer, d.Reason)
	}
	fmt.Fprintf(w, "aptlint: %d allow directive(s), %d stale\n", len(allows), stale)
	if bad > 0 || stale > 0 {
		return 1
	}
	return 0
}
