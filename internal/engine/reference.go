package engine

import (
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/sample"
	"repro/internal/tensor"
)

// Reference is the single-process sequential trainer that stands in
// for DGL/DistDGL in the paper's sanity checks (Fig. 6/7): a plain GDP
// loop with no engine machinery, used to cross-validate the unified
// engine's correctness and efficiency.
type Reference struct {
	Model   *nn.Model
	Opt     nn.Optimizer
	Feats   *tensor.Matrix
	Labels  []int32
	sampler *sample.Sampler
	rng     *graph.RNG
}

// NewReference builds a reference trainer. The model is initialized
// from seed exactly as the engine initializes its replicas.
func NewReference(g *graph.Graph, feats *tensor.Matrix, labels []int32,
	newModel func() *nn.Model, opt nn.Optimizer, smp sample.Config, seed uint64) *Reference {
	m := newModel()
	m.Init(graph.NewRNG(seed))
	if m.NeedsDstInSrc() {
		smp.IncludeDstInSrc = true
	}
	return &Reference{
		Model:   m,
		Opt:     opt,
		Feats:   feats,
		Labels:  labels,
		sampler: sample.NewSampler(g, smp, graph.NewRNG(seed^0x517cc1b7)),
		rng:     graph.NewRNG(seed ^ 0x2545f491),
	}
}

// TrainEpoch runs one epoch over seeds with the given batch size and
// returns the mean mini-batch loss.
func (r *Reference) TrainEpoch(seeds []graph.NodeID, batchSize int) float64 {
	shuffled := append([]graph.NodeID(nil), seeds...)
	r.rng.Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	var lossSum float64
	batches := 0
	for lo := 0; lo < len(shuffled); lo += batchSize {
		hi := lo + batchSize
		if hi > len(shuffled) {
			hi = len(shuffled)
		}
		batch := shuffled[lo:hi]
		lossSum += r.TrainStep(batch)
		batches++
	}
	if batches == 0 {
		return 0
	}
	return lossSum / float64(batches)
}

// TrainStep performs one optimization step on the given seeds and
// returns the batch loss.
func (r *Reference) TrainStep(batch []graph.NodeID) float64 {
	mb := r.sampler.Sample(batch)
	st := r.Model.ForwardGathered(mb, tensor.FS(r.Feats), mb.Layer1().Src)
	labels := make([]int32, len(batch))
	for i, s := range batch {
		labels[i] = r.Labels[s]
	}
	loss, dLogits := nn.SoftmaxCrossEntropy(st.Logits, labels, len(batch))
	r.Model.ZeroGrad()
	r.Model.Backward(mb, st, dLogits)
	r.Opt.Step(r.Model.Params())
	return loss
}

// Evaluate computes classification accuracy of model m on the given
// seeds, sampling with the provided configuration.
func Evaluate(g *graph.Graph, m *nn.Model, feats *tensor.Matrix, labels []int32,
	seeds []graph.NodeID, smp sample.Config, batchSize int, seed uint64) float64 {
	if m.NeedsDstInSrc() {
		smp.IncludeDstInSrc = true
	}
	sampler := sample.NewSampler(g, smp, graph.NewRNG(seed))
	correct, total := 0.0, 0
	for lo := 0; lo < len(seeds); lo += batchSize {
		hi := lo + batchSize
		if hi > len(seeds) {
			hi = len(seeds)
		}
		batch := seeds[lo:hi]
		mb := sampler.Sample(batch)
		logits := m.PredictGathered(mb, tensor.FS(feats), mb.Layer1().Src)
		lb := make([]int32, len(batch))
		for i, s := range batch {
			lb[i] = labels[s]
		}
		correct += nn.Accuracy(logits, lb) * float64(len(batch))
		tensor.Put(logits)
		total += len(batch)
	}
	if total == 0 {
		return 0
	}
	return correct / float64(total)
}
