package nn

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/sample"
	"repro/internal/tensor"
)

func smallGraph() *graph.Graph {
	return graph.PreferentialAttachment(graph.GenerateConfig{NumNodes: 120, AvgDegree: 6, Seed: 1})
}

func randomFeatures(n, d int, rng *graph.RNG) *tensor.Matrix {
	m := tensor.New(n, d)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat32() * 0.5
	}
	return m
}

func sampleBatch(g *graph.Graph, fanouts []int, includeDst bool, seeds []graph.NodeID, seed uint64) *sample.MiniBatch {
	s := sample.NewSampler(g, sample.Config{Fanouts: fanouts, IncludeDstInSrc: includeDst}, graph.NewRNG(seed))
	return s.Sample(seeds)
}

func gatherInput(feats *tensor.Matrix, blk *sample.Block) *tensor.Matrix {
	return tensor.Gather(feats, blk.Src)
}

// forward runs m's training forward with layer 0 reading the rows of x
// in order (x holds one row per layer-0 source).
func forward(m *Model, mb *sample.MiniBatch, x *tensor.Matrix) *ForwardState {
	return m.ForwardGathered(mb, tensor.FS(x), tensor.Iota(x.Rows))
}

// lossOf runs a forward pass and returns the loss.
func lossOf(m *Model, mb *sample.MiniBatch, x *tensor.Matrix, labels []int32) float64 {
	st := forward(m, mb, x)
	loss, _ := SoftmaxCrossEntropy(st.Logits, labels, len(labels))
	return loss
}

// checkModelGradients numerically validates every parameter gradient.
func checkModelGradients(t *testing.T, m *Model, mb *sample.MiniBatch, x *tensor.Matrix, labels []int32, tol float64) {
	t.Helper()
	m.ZeroGrad()
	st := forward(m, mb, x)
	_, dLogits := SoftmaxCrossEntropy(st.Logits, labels, len(labels))
	m.Backward(mb, st, dLogits)
	const eps = 1e-2
	for _, p := range m.Params() {
		// Check a few elements of each parameter (full check is slow).
		stride := len(p.W.Data)/7 + 1
		for i := 0; i < len(p.W.Data); i += stride {
			orig := p.W.Data[i]
			p.W.Data[i] = orig + eps
			up := lossOf(m, mb, x, labels)
			p.W.Data[i] = orig - eps
			down := lossOf(m, mb, x, labels)
			p.W.Data[i] = orig
			num := (up - down) / (2 * eps)
			got := float64(p.G.Data[i])
			if math.Abs(num-got) > tol*(1+math.Abs(num)) {
				t.Errorf("%s[%d]: grad %v, numerical %v", p.Name, i, got, num)
			}
		}
	}
}

func TestSAGEGradients(t *testing.T) {
	g := smallGraph()
	rng := graph.NewRNG(2)
	feats := randomFeatures(g.NumNodes(), 6, rng)
	m := NewGraphSAGE(6, 5, 3, 2)
	m.Init(graph.NewRNG(3))
	mb := sampleBatch(g, []int{4, 4}, false, []graph.NodeID{5, 9, 30}, 4)
	x := gatherInput(feats, mb.Layer1())
	labels := []int32{0, 2, 1}
	checkModelGradients(t, m, mb, x, labels, 2e-2)
}

func TestGATGradients(t *testing.T) {
	g := smallGraph()
	rng := graph.NewRNG(5)
	feats := randomFeatures(g.NumNodes(), 6, rng)
	m := NewGAT(6, 4, 2, 3, 2)
	m.Init(graph.NewRNG(6))
	mb := sampleBatch(g, []int{4, 4}, true, []graph.NodeID{7, 11}, 7)
	x := gatherInput(feats, mb.Layer1())
	labels := []int32{2, 0}
	checkModelGradients(t, m, mb, x, labels, 3e-2)
}

func TestSAGEForwardShapes(t *testing.T) {
	g := smallGraph()
	m := NewGraphSAGE(8, 16, 4, 3)
	m.Init(graph.NewRNG(1))
	mb := sampleBatch(g, []int{3, 3, 3}, false, []graph.NodeID{1, 2, 3, 4}, 1)
	x := randomFeatures(mb.Layer1().NumSrc(), 8, graph.NewRNG(2))
	st := forward(m, mb, x)
	if st.Logits.Rows != 4 || st.Logits.Cols != 4 {
		t.Errorf("logits shape %dx%d, want 4x4", st.Logits.Rows, st.Logits.Cols)
	}
}

func TestGATOutDim(t *testing.T) {
	l := NewGATLayer("g", 10, 8, 4, ActReLU)
	if l.OutDim() != 32 {
		t.Errorf("OutDim = %d, want 32 (4 heads x 8)", l.OutDim())
	}
	if !l.NeedsDstInSrc() {
		t.Error("GAT must require dst in src")
	}
	m := NewGAT(10, 8, 4, 5, 3)
	if !m.NeedsDstInSrc() {
		t.Error("GAT model must require dst in src")
	}
	if m.Layers[1].InDim() != 32 {
		t.Errorf("layer1 InDim = %d, want 32", m.Layers[1].InDim())
	}
	if m.Layers[2].OutDim() != 5 {
		t.Errorf("final OutDim = %d, want 5", m.Layers[2].OutDim())
	}
}

func TestSoftmaxCrossEntropy(t *testing.T) {
	logits := tensor.FromData(2, 3, []float32{10, 0, 0, 0, 10, 0})
	loss, grad := SoftmaxCrossEntropy(logits, []int32{0, 1}, 2)
	if loss > 0.01 {
		t.Errorf("confident correct predictions loss = %v, want ~0", loss)
	}
	// Gradient rows sum to ~0 (softmax minus one-hot).
	for i := 0; i < 2; i++ {
		var s float64
		for _, v := range grad.Row(i) {
			s += float64(v)
		}
		if math.Abs(s) > 1e-5 {
			t.Errorf("grad row %d sums to %v", i, s)
		}
	}
	lossBad, _ := SoftmaxCrossEntropy(logits, []int32{1, 0}, 2)
	if lossBad < 5 {
		t.Errorf("wrong predictions loss = %v, want large", lossBad)
	}
}

func TestGlobalBatchGradientScaling(t *testing.T) {
	// Summing two half-batch gradients (scaled by global batch) must
	// equal the full-batch gradient — the data-parallel invariant.
	logits := tensor.FromData(4, 2, []float32{1, 2, -1, 0.5, 3, 1, 0, 0})
	labels := []int32{0, 1, 0, 1}
	_, full := SoftmaxCrossEntropy(logits, labels, 4)
	lo := tensor.FromData(2, 2, logits.Data[:4])
	hi := tensor.FromData(2, 2, logits.Data[4:])
	_, g1 := SoftmaxCrossEntropy(lo, labels[:2], 4)
	_, g2 := SoftmaxCrossEntropy(hi, labels[2:], 4)
	combined := tensor.New(4, 2)
	copy(combined.Data[:4], g1.Data)
	copy(combined.Data[4:], g2.Data)
	if combined.MaxAbsDiff(full) > 1e-6 {
		t.Error("split-batch gradients do not sum to full-batch gradient")
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromData(3, 2, []float32{1, 0, 0, 1, 1, 0})
	acc := Accuracy(logits, []int32{0, 1, 1})
	if math.Abs(acc-2.0/3.0) > 1e-9 {
		t.Errorf("accuracy = %v, want 2/3", acc)
	}
	if Accuracy(tensor.New(0, 2), nil) != 0 {
		t.Error("empty accuracy should be 0")
	}
}

func TestSGDStep(t *testing.T) {
	p := NewParam("w", 1, 2)
	p.W.Data[0], p.W.Data[1] = 1, 2
	p.G.Data[0], p.G.Data[1] = 0.5, -0.5
	NewSGD(0.1).Step([]*Param{p})
	if math.Abs(float64(p.W.Data[0])-0.95) > 1e-6 || math.Abs(float64(p.W.Data[1])-2.05) > 1e-6 {
		t.Errorf("SGD step result %v", p.W.Data)
	}
}

func TestAdamReducesLoss(t *testing.T) {
	g := smallGraph()
	rng := graph.NewRNG(8)
	feats := randomFeatures(g.NumNodes(), 8, rng)
	labels := make([]int32, g.NumNodes())
	for i := range labels {
		labels[i] = int32(i % 3)
	}
	m := NewGraphSAGE(8, 16, 3, 2)
	m.Init(graph.NewRNG(9))
	opt := NewAdam(0.05)
	seeds := []graph.NodeID{1, 2, 3, 4, 5, 6, 7, 8}
	mb := sampleBatch(g, []int{5, 5}, false, seeds, 10)
	x := gatherInput(feats, mb.Layer1())
	lb := make([]int32, len(seeds))
	for i, s := range seeds {
		lb[i] = labels[s]
	}
	first := lossOf(m, mb, x, lb)
	for it := 0; it < 120; it++ {
		m.ZeroGrad()
		st := forward(m, mb, x)
		_, dL := SoftmaxCrossEntropy(st.Logits, lb, len(lb))
		m.Backward(mb, st, dL)
		opt.Step(m.Params())
	}
	last := lossOf(m, mb, x, lb)
	if last >= first/2 {
		t.Errorf("Adam failed to optimize: loss %v -> %v", first, last)
	}
}

func TestModelInitDeterministic(t *testing.T) {
	a := NewGraphSAGE(8, 16, 3, 2)
	a.Init(graph.NewRNG(1))
	b := NewGraphSAGE(8, 16, 3, 2)
	b.Init(graph.NewRNG(1))
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		if pa[i].W.MaxAbsDiff(pb[i].W) != 0 {
			t.Fatal("same-seed init differs")
		}
	}
}

func TestNumParamElements(t *testing.T) {
	m := NewGraphSAGE(10, 4, 2, 2)
	if got := m.NumParamElements(); got != 10*4+4*2 {
		t.Errorf("NumParamElements = %d, want 48", got)
	}
}

func TestSoftmaxGradientRowsSumZeroQuick(t *testing.T) {
	f := func(seed uint64) bool {
		rng := graph.NewRNG(seed)
		logits := randomFeatures(6, 5, rng)
		labels := make([]int32, 6)
		for i := range labels {
			labels[i] = int32(rng.Intn(5))
		}
		_, grad := SoftmaxCrossEntropy(logits, labels, 6)
		for i := 0; i < grad.Rows; i++ {
			var s float64
			for _, v := range grad.Row(i) {
				s += float64(v)
			}
			if s > 1e-5 || s < -1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestGlorotInitBoundsQuick(t *testing.T) {
	f := func(seed uint64) bool {
		p := NewParam("w", 7, 13)
		p.GlorotInit(graph.NewRNG(seed))
		limit := float32(math.Sqrt(6.0 / float64(7+13)))
		for _, v := range p.W.Data {
			if v < -limit || v > limit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSumAggregatorGradients(t *testing.T) {
	g := smallGraph()
	rng := graph.NewRNG(9)
	feats := randomFeatures(g.NumNodes(), 6, rng)
	m := NewGraphSAGEWithAgg(6, 5, 3, 2, AggSum)
	m.Init(graph.NewRNG(10))
	mb := sampleBatch(g, []int{4, 4}, false, []graph.NodeID{5, 9, 30}, 4)
	x := gatherInput(feats, mb.Layer1())
	labels := []int32{0, 2, 1}
	checkModelGradients(t, m, mb, x, labels, 2e-2)
}

func TestAggregatorString(t *testing.T) {
	if AggMean.String() != "mean" || AggSum.String() != "sum" {
		t.Error("aggregator names wrong")
	}
}
