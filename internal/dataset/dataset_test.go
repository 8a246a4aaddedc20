package dataset

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/sample"
)

func TestPresetsBuild(t *testing.T) {
	for _, spec := range Presets(0.05) { // tiny scale for test speed
		d := Build(spec, false)
		if err := d.Graph.Validate(); err != nil {
			t.Errorf("%s: %v", spec.Abbr, err)
		}
		if len(d.TrainSeeds) == 0 || len(d.TestSeeds) == 0 {
			t.Errorf("%s: empty splits", spec.Abbr)
		}
		if d.Feats != nil {
			t.Errorf("%s: features built when not requested", spec.Abbr)
		}
		for _, s := range d.TrainSeeds {
			if int(s) >= d.Graph.NumNodes() {
				t.Fatalf("%s: seed out of range", spec.Abbr)
			}
		}
	}
}

func TestFeaturesCarryLabelSignal(t *testing.T) {
	spec := Presets(0.02)[0]
	d := Build(spec, true)
	if d.Feats == nil || d.Feats.Rows != d.Graph.NumNodes() || d.Feats.Cols != spec.FeatDim {
		t.Fatal("feature shape wrong")
	}
	// The label coordinate should be elevated on average.
	var sig, other float64
	n := 0
	for v := 0; v < d.Graph.NumNodes(); v += 7 {
		c := int(d.Labels[v]) % spec.FeatDim
		sig += float64(d.Feats.At(v, c))
		other += float64(d.Feats.At(v, (c+1)%spec.FeatDim))
		n++
	}
	if sig/float64(n) < other/float64(n)+0.5 {
		t.Errorf("label signal weak: %v vs %v", sig/float64(n), other/float64(n))
	}
}

// TestAccessSkewOrdering verifies the property the whole evaluation
// hinges on: PS accesses are the most concentrated, FS the most
// scattered, IM in between (paper Table 3).
func TestAccessSkewOrdering(t *testing.T) {
	top1 := map[string]float64{}
	for _, spec := range Presets(0.10) {
		d := Build(spec, false)
		freq := make([]int64, d.Graph.NumNodes())
		s := sample.NewSampler(d.Graph, sample.Config{Fanouts: []int{10, 10, 10}}, graph.NewRNG(3))
		for lo := 0; lo < len(d.TrainSeeds); lo += 512 {
			hi := lo + 512
			if hi > len(d.TrainSeeds) {
				hi = len(d.TrainSeeds)
			}
			mb := s.Sample(d.TrainSeeds[lo:hi])
			sample.CountLayer1SrcAccesses(freq, mb)
		}
		buckets := graph.AccessSkew(freq)
		top1[spec.Abbr] = buckets[0].AccessRatio
	}
	t.Logf("top-1%% access ratios: PS=%.3f IM=%.3f FS=%.3f", top1["PS"], top1["IM"], top1["FS"])
	if !(top1["PS"] > top1["IM"] && top1["IM"] > top1["FS"]) {
		t.Errorf("skew ordering violated: PS=%.3f IM=%.3f FS=%.3f (want PS > IM > FS)",
			top1["PS"], top1["IM"], top1["FS"])
	}
	if top1["PS"] < 0.12 {
		t.Errorf("PS top-1%% = %.3f, want strongly skewed (> 0.12 at test scale)", top1["PS"])
	}
	if top1["FS"] > 0.10 {
		t.Errorf("FS top-1%% = %.3f, want scattered (< 0.10 at test scale)", top1["FS"])
	}
}

func TestByAbbr(t *testing.T) {
	if _, err := ByAbbr("PS", 1); err != nil {
		t.Error(err)
	}
	if _, err := ByAbbr("friendster-sim", 1); err != nil {
		t.Error(err)
	}
	if _, err := ByAbbr("nope", 1); err == nil {
		t.Error("accepted unknown dataset")
	}
}

// TestByAbbrRejectsBadScale: a scale that is not finite and positive,
// or that leaves a preset with no node or more nodes than a NodeID
// holds, is an error; graph.RMAT used to panic on each with a negative
// shift amount.
func TestByAbbrRejectsBadScale(t *testing.T) {
	for _, scale := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1), 1e-7, 1e300} {
		if s, err := ByAbbr("PS", scale); err == nil {
			t.Errorf("scale %v accepted (%d nodes)", scale, s.NumNodes)
		}
	}
}

func TestCacheBytesFraction(t *testing.T) {
	spec := Presets(0.02)[0]
	d := Build(spec, false)
	if d.CacheBytesFraction(0.5)*2 != d.FeatureBytes() {
		t.Error("fraction math wrong")
	}
}

func TestBuildDeterministic(t *testing.T) {
	spec := Presets(0.02)[1]
	a, b := Build(spec, false), Build(spec, false)
	if a.Graph.NumEdges() != b.Graph.NumEdges() {
		t.Error("builds differ")
	}
	for i := range a.TrainSeeds {
		if a.TrainSeeds[i] != b.TrainSeeds[i] {
			t.Fatal("seed splits differ")
		}
	}
}

func TestHomophilyIncreasesLabelPurity(t *testing.T) {
	spec := Presets(0.03)[1]
	spec.Classes = 8
	spec.HomophilyDegree = 0
	plain := Build(spec, false)
	spec2 := spec
	spec2.HomophilyDegree = 8
	homo := Build(spec2, false)
	purity := func(d *Dataset) float64 {
		same, total := 0, 0
		for v := 0; v < d.Graph.NumNodes(); v += 3 {
			for _, u := range d.Graph.Neighbors(int32(v)) {
				if d.Labels[u] == d.Labels[v] {
					same++
				}
				total++
			}
		}
		return float64(same) / float64(total+1)
	}
	pp, ph := purity(plain), purity(homo)
	if ph <= pp+0.1 {
		t.Errorf("homophily edges did not raise label purity: %.3f -> %.3f", pp, ph)
	}
	if homo.Graph.NumEdges() <= plain.Graph.NumEdges() {
		t.Error("homophily edges missing")
	}
}

func TestTrainTestSplitsDisjoint(t *testing.T) {
	d := Build(Presets(0.03)[0], false)
	seen := map[int32]bool{}
	for _, s := range d.TrainSeeds {
		seen[s] = true
	}
	for _, s := range d.TestSeeds {
		if seen[s] {
			t.Fatalf("seed %d in both splits", s)
		}
	}
}

// TestBuildGolden pins every preset's graph, features and seed splits
// bit for bit, as the fnv64a of their contents, and PS at the benchmark
// workloads' scale (0.2): its 44000 feature rows are not a multiple of
// featBlock, nor its 528000 RMAT edges of graph.RMAT's chunk, so each
// parallel pass ends on a partial chunk.
func TestBuildGolden(t *testing.T) {
	want := map[string]uint64{
		"PS": 0x25dc4f4c16e437a7,
		"FS": 0xc05ada76f8e8556c,
		"IM": 0xce1af3df8d816877,
	}
	for _, spec := range Presets(0.02) {
		if got := buildHash(spec); got != want[spec.Abbr] {
			t.Errorf("%s: dataset fnv64a %016x, want %016x", spec.Abbr, got, want[spec.Abbr])
		}
	}
	spec, err := ByAbbr("PS", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if spec.NumNodes%featBlock == 0 {
		t.Fatalf("PS at 0.2 has %d nodes, a multiple of featBlock %d", spec.NumNodes, featBlock)
	}
	if got, want := buildHash(spec), uint64(0x1059b7c753379d89); got != want {
		t.Errorf("PS at 0.2: dataset fnv64a %016x, want %016x", got, want)
	}
}

// buildHash builds spec with features and returns the fnv64a of its
// CSR, seed splits and feature bits.
func buildHash(spec Spec) uint64 {
	d := Build(spec, true)
	h := fnv.New64a()
	put := func(xs ...uint32) {
		var b [4]byte
		for _, x := range xs {
			binary.LittleEndian.PutUint32(b[:], x)
			h.Write(b[:])
		}
	}
	for _, p := range d.Graph.Indptr {
		put(uint32(p))
	}
	for _, s := range [][]graph.NodeID{d.Graph.Indices, d.TrainSeeds, d.TestSeeds} {
		for _, v := range s {
			put(uint32(v))
		}
	}
	for _, f := range d.Feats.Data {
		put(math.Float32bits(f))
	}
	return h.Sum64()
}

var sinkDataset *Dataset

// BenchmarkDatasetBuild builds the PS preset with features at the
// benchmark workloads' scale (0.2).
func BenchmarkDatasetBuild(b *testing.B) {
	spec, err := ByAbbr("PS", 0.2)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkDataset = Build(spec, true)
	}
}
