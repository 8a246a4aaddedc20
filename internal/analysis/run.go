package analysis

import (
	"fmt"
	"go/token"
	"io"
	"sort"
)

// A Finding is one driver-level result: a diagnostic attributed to its
// analyzer, with suppression resolved against //apt:allow directives.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Suppressed is set when an //apt:allow directive covers the
	// finding; Reason carries the directive's justification.
	Suppressed bool
	Reason     string
}

func (f Finding) String() string {
	s := fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
	if f.Suppressed {
		s += fmt.Sprintf(" (allowed: %s)", f.Reason)
	}
	return s
}

// Run executes every analyzer over every package, resolves //apt:allow
// suppressions, and returns all findings (suppressed ones included)
// sorted by position, together with every //apt:allow directive of the
// packages in file-then-line order. A directive's Used is set when it
// suppressed at least one finding; one that did not is stale. Analyzer
// errors abort the run.
func Run(analyzers []*Analyzer, pkgs []*Package) ([]Finding, []*AllowDirective, error) {
	var findings []Finding
	var allows []*AllowDirective
	// One call graph serves every (analyzer, package) pass: the loader
	// type-checks the whole set with shared *types.Func identities, so
	// interprocedural queries work across package boundaries.
	graph := BuildCallGraph(pkgs)
	for _, pkg := range pkgs {
		// Directive scopes are per-file line ranges, keyed by filename.
		fileAllows := map[string][]*AllowDirective{}
		for _, f := range pkg.Files {
			name := pkg.Fset.Position(f.Pos()).Filename
			ds := AllowsForFile(pkg.Fset, f)
			fileAllows[name] = ds
			allows = append(allows, ds...)
		}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				PkgPath:   pkg.Path,
				Dir:       pkg.Dir,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Graph:     graph,
			}
			name := a.Name
			pass.report = func(d Diagnostic) {
				pos := pkg.Fset.Position(d.Pos)
				f := Finding{Pos: pos, Analyzer: name, Message: d.Message}
				if d := matchAllow(fileAllows[pos.Filename], name, pos.Line); d != nil {
					d.Used = true
					f.Suppressed = true
					f.Reason = d.Reason
				}
				findings = append(findings, f)
			}
			if err := a.Run(pass); err != nil {
				return nil, nil, fmt.Errorf("%s: %s: %w", pkg.Path, a.Name, err)
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	sort.Slice(allows, func(i, j int) bool {
		a, b := allows[i], allows[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		return a.Pos.Line < b.Pos.Line
	})
	return findings, allows, nil
}

// matchAllow returns the first allow directive for analyzer covering
// line, or nil.
func matchAllow(ds []*AllowDirective, analyzer string, line int) *AllowDirective {
	for _, d := range ds {
		if d.Analyzer == analyzer && line >= d.FromLine && line <= d.ToLine {
			return d
		}
	}
	return nil
}

// Print writes unsuppressed findings to w, one per line, and returns
// how many there were.
func Print(w io.Writer, findings []Finding) int {
	bad := 0
	for _, f := range findings {
		if !f.Suppressed {
			fmt.Fprintln(w, f)
			bad++
		}
	}
	return bad
}
