package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Optimizer updates parameters from their accumulated gradients.
type Optimizer interface {
	// Step applies one update and leaves gradients untouched (callers
	// zero them explicitly between iterations).
	Step(params []*Param)
}

// OptState is a serializable snapshot of an optimizer's internal state.
// Moment vectors are keyed positionally by the params slice handed to
// State/Restore (always Model.Params() order); a nil slice means the
// optimizer had not yet materialized that parameter's moments — lazily
// initialized optimizers must round-trip that distinction exactly, or
// a restored run would diverge from the original on the first step.
type OptState struct {
	// Kind names the optimizer family ("adam"); Restore rejects a
	// snapshot from a different family.
	Kind string
	// Step is Adam's bias-correction step count.
	Step int64
	// M holds the first-moment vector per parameter, flattened
	// row-major.
	M [][]float32
	// V holds Adam's second-moment vector per parameter. It is nil
	// when every slot is absent: the form a never-stepped Adam's state
	// takes after the checkpoint codec.
	V [][]float32
}

// StatefulOptimizer is an Optimizer whose internal state can be
// captured into an OptState and restored bit-identically — the
// contract checkpoint/resume builds on. Adam implements it; an
// Optimizer that does not is checkpointed without state and restarts
// cold on resume, which for the stateless SGD changes nothing.
type StatefulOptimizer interface {
	Optimizer
	// State snapshots the optimizer; params fixes the moment order.
	State(params []*Param) OptState
	// Restore installs a snapshot captured by State over the same
	// parameter list (same count and shapes).
	Restore(params []*Param, st OptState) error
}

// SGD is plain stochastic gradient descent; it holds no state.
type SGD struct {
	LR float32
}

// NewSGD constructs an SGD optimizer.
func NewSGD(lr float32) *SGD {
	return &SGD{LR: lr}
}

// Step implements Optimizer.
//
//apt:hotpath
func (o *SGD) Step(params []*Param) {
	for _, p := range params {
		p.W.AXPY(-o.LR, p.G)
	}
}

// Adam's standard hyperparameters. They are typed float32 so that an
// expression over them gives what float32 arithmetic gives: an untyped
// 1-0.9 would fold exactly to 0.1, and float32(0.1) is not
// float32(1)-float32(0.9).
const (
	adamBeta1 float32 = 0.9
	adamBeta2 float32 = 0.999
	adamEps   float32 = 1e-8
)

// Adam implements the Adam optimizer with bias correction.
type Adam struct {
	LR   float32
	t    int
	m, v map[*Param]*tensor.Matrix
}

// NewAdam constructs Adam with learning rate lr.
func NewAdam(lr float32) *Adam {
	return &Adam{LR: lr, m: map[*Param]*tensor.Matrix{}, v: map[*Param]*tensor.Matrix{}}
}

// State implements StatefulOptimizer: the bias-correction step count
// and both moment vectors per parameter (nil before the first Step
// touched that parameter).
func (a *Adam) State(params []*Param) OptState {
	st := OptState{
		Kind: "adam", Step: int64(a.t),
		M: make([][]float32, len(params)),
		V: make([][]float32, len(params)),
	}
	for i, p := range params {
		if m := a.m[p]; m != nil {
			st.M[i] = append([]float32(nil), m.Data...)
			st.V[i] = append([]float32(nil), a.v[p].Data...)
		}
	}
	return st
}

// Restore implements StatefulOptimizer.
func (a *Adam) Restore(params []*Param, st OptState) error {
	if st.Kind != "adam" {
		return fmt.Errorf("nn: restoring %q state into Adam", st.Kind)
	}
	if st.V == nil {
		// A never-stepped Adam's state has every moment slot absent,
		// and the checkpoint codec canonicalizes all-absent V to nil.
		// Accept that form iff M is all-absent too.
		allNil := true
		for _, m := range st.M {
			if m != nil {
				allNil = false
				break
			}
		}
		if allNil {
			st.V = make([][]float32, len(st.M))
		}
	}
	if len(st.M) != len(params) || len(st.V) != len(params) {
		return fmt.Errorf("nn: adam state has %d/%d moment slots, model has %d params",
			len(st.M), len(st.V), len(params))
	}
	if st.Step < 0 {
		return fmt.Errorf("nn: adam state has negative step %d", st.Step)
	}
	m := make(map[*Param]*tensor.Matrix, len(params))
	v := make(map[*Param]*tensor.Matrix, len(params))
	for i, p := range params {
		if (st.M[i] == nil) != (st.V[i] == nil) {
			return fmt.Errorf("nn: adam moments for param %d present in only one of m/v", i)
		}
		if st.M[i] == nil {
			continue
		}
		want := p.W.Rows * p.W.Cols
		if len(st.M[i]) != want || len(st.V[i]) != want {
			return fmt.Errorf("nn: adam moments %d have %d/%d elements, param %s has %d",
				i, len(st.M[i]), len(st.V[i]), p.Name, want)
		}
		mm := tensor.New(p.W.Rows, p.W.Cols)
		vv := tensor.New(p.W.Rows, p.W.Cols)
		copy(mm.Data, st.M[i])
		copy(vv.Data, st.V[i])
		m[p], v[p] = mm, vv
	}
	a.t = int(st.Step)
	a.m, a.v = m, v
	return nil
}

// Step implements Optimizer.
//
//apt:hotpath
func (a *Adam) Step(params []*Param) {
	a.t++
	c1 := 1 - float32(math.Pow(float64(adamBeta1), float64(a.t)))
	c2 := 1 - float32(math.Pow(float64(adamBeta2), float64(a.t)))
	for _, p := range params {
		m := a.m[p]
		v := a.v[p]
		if m == nil {
			m = tensor.New(p.W.Rows, p.W.Cols)
			v = tensor.New(p.W.Rows, p.W.Cols)
			a.m[p] = m
			a.v[p] = v
		}
		for i, g := range p.G.Data {
			m.Data[i] = adamBeta1*m.Data[i] + (1-adamBeta1)*g
			v.Data[i] = adamBeta2*v.Data[i] + (1-adamBeta2)*g*g
			mhat := m.Data[i] / c1
			vhat := v.Data[i] / c2
			p.W.Data[i] -= a.LR * mhat / (float32(math.Sqrt(float64(vhat))) + adamEps)
		}
	}
}
