// Package directive keeps aptlint's own directive comments honest.
//
// Suppressions are part of the audited invariant policy, so a typo'd
// directive must be an error, not a silent no-op: //apt:allow with a
// missing analyzer name, an unknown analyzer name, or no reason;
// //apt:hotpath placed anywhere but a function declaration's doc
// comment; and any other //apt:* spelling are all reported.
package directive

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "directive",
	Doc:  "validate //apt:allow and //apt:hotpath directive comments",
	Run:  run,
}

// Known is the set of analyzer names //apt:allow may reference. The
// registry populates it so this package does not import its siblings.
var Known = map[string]bool{}

func knownNames() string {
	names := make([]string, 0, len(Known))
	for n := range Known {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		hotpathLines := hotpathDocLines(pass.Fset, f)
		for _, g := range f.Comments {
			for _, c := range g.List {
				checkComment(pass, c, hotpathLines)
			}
		}
	}
	return nil
}

// hotpathDocLines collects the line numbers of doc comments attached to
// function declarations — the only place //apt:hotpath belongs.
func hotpathDocLines(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := map[int]bool{}
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Doc == nil {
			continue
		}
		for _, c := range fn.Doc.List {
			lines[fset.Position(c.Pos()).Line] = true
		}
	}
	return lines
}

func checkComment(pass *analysis.Pass, c *ast.Comment, hotpathLines map[int]bool) {
	text := c.Text
	if !strings.HasPrefix(text, "//apt:") {
		return
	}
	word := text[len("//apt:"):]
	if i := strings.IndexAny(word, " \t"); i >= 0 {
		word = word[:i]
	}
	switch word {
	case "allow":
		fields := strings.Fields(text[len("//apt:allow"):])
		switch {
		case len(fields) == 0:
			pass.Reportf(c.Pos(), "//apt:allow needs an analyzer name and a reason")
		case len(Known) > 0 && !Known[fields[0]]:
			pass.Reportf(c.Pos(), "//apt:allow names unknown analyzer %q (known: %s)", fields[0], knownNames())
		case len(fields) == 1:
			pass.Reportf(c.Pos(), "//apt:allow %s has no reason: suppressions must say why", fields[0])
		}
	case "hotpath":
		if !hotpathLines[pass.Fset.Position(c.Pos()).Line] {
			pass.Reportf(c.Pos(), "//apt:hotpath must sit in a function declaration's doc comment")
		}
	default:
		pass.Reportf(c.Pos(), "unknown aptlint directive //apt:%s (known: allow, hotpath)", word)
	}
}
