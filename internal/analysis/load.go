package analysis

// Package loading without golang.org/x/tools/go/packages: aptlint
// discovers the module's packages by walking the source tree, parses
// them with go/parser, topologically orders them by their intra-module
// imports, and type-checks each with go/types. Standard-library imports
// resolve through the toolchain's compiled export data
// (importer.ForCompiler "gc"), which works offline; module-internal
// imports resolve to the packages checked earlier in topological order.

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one parsed, type-checked package ready for analysis.
type Package struct {
	Path  string // import path
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// LoadModule parses and type-checks every non-test package of the Go
// module rooted at dir (the directory containing go.mod). testdata,
// vendor and hidden directories are skipped, as are _test.go files:
// aptlint's invariants are properties of production code, and tests
// legitimately use wall-clock timeouts and ad-hoc allocation. Files
// whose build constraints exclude the host platform are skipped too
// (see loader.parse).
func LoadModule(dir string) ([]*Package, error) {
	modPath, err := modulePath(filepath.Join(dir, "go.mod"))
	if err != nil {
		return nil, err
	}
	pkgDirs := map[string]string{}
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != dir && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") || strings.HasSuffix(d.Name(), "_test.go") {
			return nil
		}
		pdir := filepath.Dir(path)
		rel, err := filepath.Rel(dir, pdir)
		if err != nil {
			return err
		}
		imp := modPath
		if rel != "." {
			imp = modPath + "/" + filepath.ToSlash(rel)
		}
		pkgDirs[imp] = pdir
		return nil
	})
	if err != nil {
		return nil, err
	}
	return LoadPackages(token.NewFileSet(), pkgDirs)
}

// LoadPackages parses and type-checks the package directories in dirs,
// keyed by import path. Imports between the given packages resolve to
// each other; all other imports resolve to the standard library.
// Packages are returned sorted by import path.
func LoadPackages(fset *token.FileSet, dirs map[string]string) ([]*Package, error) {
	ld := &loader{
		fset:    fset,
		dirs:    dirs,
		std:     importer.ForCompiler(fset, "gc", nil),
		parsed:  map[string]*parsedPkg{},
		checked: map[string]*Package{},
	}
	paths := make([]string, 0, len(dirs))
	for p := range dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := ld.check(p, nil); err != nil {
			return nil, err
		}
	}
	out := make([]*Package, 0, len(paths))
	for _, p := range paths {
		out = append(out, ld.checked[p])
	}
	return out, nil
}

type parsedPkg struct {
	name  string
	files []*ast.File
}

type loader struct {
	fset    *token.FileSet
	dirs    map[string]string
	std     types.Importer
	parsed  map[string]*parsedPkg
	checked map[string]*Package
}

// Import implements types.Importer so a package under check can resolve
// its intra-set imports through the loader.
func (ld *loader) Import(path string) (*types.Package, error) {
	if _, ok := ld.dirs[path]; ok {
		pkg, err := ld.check(path, nil)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return ld.std.Import(path)
}

// check type-checks path, first checking its intra-set dependencies.
// stack detects import cycles.
func (ld *loader) check(path string, stack []string) (*Package, error) {
	if pkg, ok := ld.checked[path]; ok {
		return pkg, nil
	}
	for _, s := range stack {
		if s == path {
			return nil, fmt.Errorf("import cycle: %s", strings.Join(append(stack, path), " -> "))
		}
	}
	pp, err := ld.parse(path)
	if err != nil {
		return nil, err
	}
	stack = append(stack, path)
	for _, imp := range importsOf(pp.files) {
		if _, ok := ld.dirs[imp]; ok {
			if _, err := ld.check(imp, stack); err != nil {
				return nil, err
			}
		}
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	var firstErr error
	conf := types.Config{
		Importer: ld,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	tpkg, _ := conf.Check(path, ld.fset, pp.files, info)
	if firstErr != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, firstErr)
	}
	pkg := &Package{
		Path:  path,
		Dir:   ld.dirs[path],
		Fset:  ld.fset,
		Files: pp.files,
		Types: tpkg,
		Info:  info,
	}
	ld.checked[path] = pkg
	return pkg, nil
}

func (ld *loader) parse(path string) (*parsedPkg, error) {
	if pp, ok := ld.parsed[path]; ok {
		return pp, nil
	}
	dir := ld.dirs[path]
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pp := &parsedPkg{}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		// The file set is the one `go build` would compile here: a
		// //go:build line or a _GOOS/_GOARCH suffix that excludes the
		// host platform excludes the file (and MatchFile drops "." and
		// "_" prefixes), so an _amd64.go / !amd64 pair declaring the same
		// function type-checks as one declaration, not a redeclaration.
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if pp.name == "" {
			pp.name = f.Name.Name
		} else if f.Name.Name != pp.name {
			return nil, fmt.Errorf("%s: conflicting package names %s and %s", dir, pp.name, f.Name.Name)
		}
		pp.files = append(pp.files, f)
	}
	if len(pp.files) == 0 {
		return nil, fmt.Errorf("%s: no buildable Go files", dir)
	}
	ld.parsed[path] = pp
	return pp, nil
}

// importsOf returns the distinct import paths of files, sorted.
func importsOf(files []*ast.File) []string {
	seen := map[string]bool{}
	var out []string
	for _, f := range files {
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	sort.Strings(out)
	return out
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module directive", gomod)
}
