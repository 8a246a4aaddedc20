// Command aptlint runs the repo's static-analysis suite (simclock,
// detrange, hotalloc, poolpair, directive, lockstep, goownership,
// wirecontract — see DESIGN.md decisions 14 and 19) over the whole
// module.
//
// Usage:
//
//	aptlint [-C dir]
//
// aptlint always analyzes the full module rooted at dir (default: the
// nearest go.mod at or above the working directory) — the invariants it
// enforces are module-wide, so there is no package filter to narrow a
// run below the gate `make verify` applies.
//
// It prints every unsuppressed finding, then every //apt:allow
// suppression with its justification and whether the finding it
// excuses still fires, and exits 1 if there is a finding or a stale
// directive, so suppressions cannot outlive their cause unnoticed.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/analysis/aptlint"
)

func main() {
	dir := flag.String("C", ".", "directory inside the module to analyze (the nearest go.mod at or above it is the root)")
	flag.Parse()

	root, err := findModuleRoot(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aptlint:", err)
		os.Exit(2)
	}
	os.Exit(aptlint.Audit(os.Stdout, root))
}

func findModuleRoot(start string) (string, error) {
	dir, err := filepath.Abs(start)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found at or above %s", start)
		}
		dir = parent
	}
}
