// Package analysistest runs one analyzer over a testdata source tree
// and checks its diagnostics against expectations embedded in the
// sources — a stdlib-only equivalent of
// golang.org/x/tools/go/analysis/analysistest.
//
// Layout mirrors the x/tools convention: testdata/src/<importpath>/
// holds one package per directory; packages may import each other by
// those paths (so a test package can import a stubbed "tensor").
//
// Expectations sit on the line they refer to:
//
//	x := time.Now() // want "wall-clock"
//	y := tensor.Get(2, 2) //apt:allow poolpair scratch // want:suppressed "never passed"
//
// `want` takes one or more quoted regexps, each of which must match a
// distinct unsuppressed finding on that line; `want:suppressed`
// likewise for findings cancelled by an //apt:allow directive — proving
// both that the analyzer fired and that the suppression took. Findings
// with no expectation, and expectations with no finding, fail the test.
package analysistest

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// Run loads testdata/src, runs a over the packages named by pkgpaths,
// and reports expectation mismatches through t.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgpaths ...string) {
	t.Helper()
	srcRoot := filepath.Join(testdata, "src")
	dirs, err := discover(srcRoot)
	if err != nil {
		t.Fatalf("discovering %s: %v", srcRoot, err)
	}
	pkgs, err := analysis.LoadPackages(token.NewFileSet(), dirs)
	if err != nil {
		t.Fatalf("loading testdata: %v", err)
	}
	var check []*analysis.Package
	checkDirs := map[string]bool{}
	for _, want := range pkgpaths {
		found := false
		for _, p := range pkgs {
			if p.Path == want {
				check = append(check, p)
				checkDirs[p.Dir] = true
				found = true
			}
		}
		if !found {
			t.Fatalf("package %q not found under %s", want, srcRoot)
		}
	}
	// Run over every loaded package — interprocedural analyzers need
	// the full call graph, stub packages included — but hold only the
	// named packages to their want markers.
	findings, _, err := analysis.Run([]*analysis.Analyzer{a}, pkgs)
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}
	var scoped []analysis.Finding
	for _, f := range findings {
		if checkDirs[filepath.Dir(f.Pos.Filename)] {
			scoped = append(scoped, f)
		}
	}
	exps, err := expectations(check)
	if err != nil {
		t.Fatalf("parsing expectations: %v", err)
	}
	match(t, a.Name, scoped, exps)
}

// discover maps each package directory under srcRoot to its import
// path (the slash path relative to srcRoot).
func discover(srcRoot string) (map[string]string, error) {
	dirs := map[string]string{}
	err := filepath.WalkDir(srcRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(d.Name(), ".go") {
			return err
		}
		dir := filepath.Dir(path)
		rel, err := filepath.Rel(srcRoot, dir)
		if err != nil {
			return err
		}
		dirs[filepath.ToSlash(rel)] = dir
		return nil
	})
	return dirs, err
}

// An expectation is one `want` or `want:suppressed` regexp with its
// location.
type expectation struct {
	file       string
	line       int
	re         *regexp.Regexp
	suppressed bool
	matched    bool
}

// expectations scans the comments of every file in pkgs.
func expectations(pkgs []*analysis.Package) ([]*expectation, error) {
	var out []*expectation
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, g := range f.Comments {
				for _, c := range g.List {
					pos := pkg.Fset.Position(c.Pos())
					exps, err := parseWants(c.Text, pos)
					if err != nil {
						return nil, err
					}
					out = append(out, exps...)
				}
			}
		}
	}
	return out, nil
}

// parseWants extracts the expectations of one comment. A comment may
// carry both a want and a want:suppressed section.
func parseWants(text string, pos token.Position) ([]*expectation, error) {
	var out []*expectation
	for _, marker := range []struct {
		tag        string
		suppressed bool
	}{{"want:suppressed", true}, {"want", false}} {
		idx := markerIndex(text, marker.tag)
		if idx < 0 {
			continue
		}
		section := text[idx+len(marker.tag):]
		if end := markerIndex(section, "want:suppressed"); !marker.suppressed && end >= 0 {
			// Don't let a plain `want` scan re-consume the suppressed
			// section's patterns.
			section = section[:end]
		}
		for _, q := range quotedStrings(section) {
			pat, err := strconv.Unquote(q)
			if err != nil {
				return nil, fmt.Errorf("%s: bad pattern %s: %v", pos, q, err)
			}
			re, err := regexp.Compile(pat)
			if err != nil {
				return nil, fmt.Errorf("%s: bad regexp %q: %v", pos, pat, err)
			}
			out = append(out, &expectation{
				file: pos.Filename, line: pos.Line,
				re: re, suppressed: marker.suppressed,
			})
		}
	}
	return out, nil
}

// markerIndex finds tag in text as a standalone word (so "want" does
// not match inside "want:suppressed").
func markerIndex(text, tag string) int {
	for from := 0; ; {
		i := strings.Index(text[from:], tag)
		if i < 0 {
			return -1
		}
		i += from
		end := i + len(tag)
		before := i == 0 || text[i-1] == ' ' || text[i-1] == '\t' || text[i-1] == '/'
		after := end == len(text) || text[end] == ' ' || text[end] == '\t'
		if before && after {
			return i
		}
		from = end
	}
}

// quotedStrings returns the double-quoted segments of s, quotes
// included, honoring backslash escapes.
func quotedStrings(s string) []string {
	var out []string
	for i := 0; i < len(s); i++ {
		if s[i] != '"' {
			continue
		}
		j := i + 1
		for ; j < len(s); j++ {
			if s[j] == '\\' {
				j++
				continue
			}
			if s[j] == '"' {
				break
			}
		}
		if j >= len(s) {
			break
		}
		out = append(out, s[i:j+1])
		i = j
	}
	return out
}

// match pairs findings with expectations one-to-one per (file, line,
// suppression class) and reports every leftover on either side.
func match(t *testing.T, analyzer string, findings []analysis.Finding, exps []*expectation) {
	t.Helper()
	for _, f := range findings {
		ok := false
		for _, e := range exps {
			if e.matched || e.suppressed != f.Suppressed ||
				e.file != f.Pos.Filename || e.line != f.Pos.Line {
				continue
			}
			if e.re.MatchString(f.Message) {
				e.matched = true
				ok = true
				break
			}
		}
		if !ok {
			kind := "finding"
			if f.Suppressed {
				kind = "suppressed finding"
			}
			t.Errorf("%s: unexpected %s: %s: %s", f.Pos, kind, analyzer, f.Message)
		}
	}
	for _, e := range exps {
		if !e.matched {
			kind := "want"
			if e.suppressed {
				kind = "want:suppressed"
			}
			t.Errorf("%s:%d: no %s finding matched %s %q", e.file, e.line, analyzer, kind, e.re)
		}
	}
}
