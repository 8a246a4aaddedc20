package analysis

import (
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadTestModule writes the given files (path → source) under a temp
// module root and loads them.
func loadTestModule(t *testing.T, files map[string]string) []*Package {
	t.Helper()
	dir := t.TempDir()
	for rel, src := range files {
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, err := LoadModule(dir)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	return pkgs
}

func findFunc(t *testing.T, g *CallGraph, name string) *types.Func {
	t.Helper()
	for _, n := range g.Funcs() {
		if n.Fn.Name() == name {
			return n.Fn
		}
	}
	t.Fatalf("function %s not in call graph", name)
	return nil
}

func TestCallGraphCrossPackageReachers(t *testing.T) {
	pkgs := loadTestModule(t, map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.21\n",
		"comm/comm.go": `package comm

type Comm struct{}

func (c *Comm) AllReduce(xs []float32) {}
`,
		"engine/engine.go": `package engine

import "tmpmod/comm"

type Engine struct{ C *comm.Comm }

func (e *Engine) syncGradients() { e.C.AllReduce(nil) }

func (e *Engine) computeStep() { e.syncGradients() }

func (e *Engine) RunEpoch() {
	for i := 0; i < 3; i++ {
		e.computeStep()
	}
}

// viaClosure's collective call sits inside a literal: reachability
// attributes it to the enclosing declaration.
func (e *Engine) viaClosure() {
	f := func() { e.syncGradients() }
	f()
}

func (e *Engine) pure() int { return 1 }
`,
	})
	g := BuildCallGraph(pkgs)
	reach := g.Reachers(func(fn *types.Func) bool {
		return fn.Name() == "AllReduce" && fn.Pkg() != nil && strings.HasSuffix(fn.Pkg().Path(), "comm")
	})

	for _, name := range []string{"syncGradients", "computeStep", "RunEpoch", "viaClosure"} {
		if !reach.Reaches(findFunc(t, g, name)) {
			t.Errorf("%s should reach AllReduce", name)
		}
	}
	for _, name := range []string{"pure", "AllReduce"} {
		if reach.Reaches(findFunc(t, g, name)) {
			t.Errorf("%s should not be a reacher", name)
		}
	}

	got := reach.Path(findFunc(t, g, "RunEpoch"))
	want := []string{"computeStep", "syncGradients", "AllReduce"}
	if strings.Join(got, "→") != strings.Join(want, "→") {
		t.Errorf("Path(RunEpoch) = %v, want %v", got, want)
	}
}

func TestCallGraphDeterministicOrder(t *testing.T) {
	files := map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.21\n",
		"p/p.go": `package p

func a() { b(); c() }
func b() { c() }
func c() {}
`,
	}
	var first []string
	for trial := 0; trial < 3; trial++ {
		g := BuildCallGraph(loadTestModule(t, files))
		var names []string
		for _, n := range g.Funcs() {
			names = append(names, n.Fn.Name())
			for _, e := range n.Calls {
				names = append(names, "->"+e.Callee.Name())
			}
		}
		if first == nil {
			first = names
		} else if strings.Join(names, " ") != strings.Join(first, " ") {
			t.Fatalf("trial %d order %v != %v", trial, names, first)
		}
	}
	if len(first) == 0 {
		t.Fatal("empty graph")
	}
}

func TestRunAttachesGraph(t *testing.T) {
	pkgs := loadTestModule(t, map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.21\n",
		"p/p.go": "package p\n\nfunc F() {}\n",
	})
	var sawGraph *CallGraph
	var sawDir string
	probe := &Analyzer{
		Name: "probe",
		Doc:  "records the pass wiring",
		Run: func(pass *Pass) error {
			sawGraph = pass.Graph
			sawDir = pass.Dir
			return nil
		},
	}
	if _, _, err := Run([]*Analyzer{probe}, pkgs); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sawGraph == nil {
		t.Error("pass.Graph not set by the driver")
	}
	if sawDir == "" {
		t.Error("pass.Dir not set by the driver")
	}
	if sawGraph != nil && sawGraph.Node(findFunc(t, sawGraph, "F")) == nil {
		t.Error("graph missing node for F")
	}
}
