package strategy

import "testing"

func TestParseRoundTrip(t *testing.T) {
	for _, k := range Core {
		got, err := Parse(k.String())
		if err != nil || got != k {
			t.Errorf("Parse(%q) = %v, %v", k.String(), got, err)
		}
	}
	for _, name := range []string{"xyz", "Hybrid", "hybrid"} {
		if _, err := Parse(name); err == nil {
			t.Errorf("Parse accepted unknown strategy %q", name)
		}
	}
	if k, err := Parse("snp"); err != nil || k != SNP {
		t.Error("lowercase parse failed")
	}
}

func TestNeedsPartition(t *testing.T) {
	want := map[Kind]bool{GDP: false, NFP: false, SNP: true, DNP: true}
	for k, w := range want {
		if k.NeedsPartition() != w {
			t.Errorf("%v.NeedsPartition() = %v, want %v", k, k.NeedsPartition(), w)
		}
	}
}

func TestCoreOrder(t *testing.T) {
	if len(Core) != 4 || Core[0] != GDP || Core[3] != DNP {
		t.Errorf("Core = %v", Core)
	}
}

func TestTable1QualitativeClaims(t *testing.T) {
	rows := Table1()
	byKind := map[Kind]Tradeoff{}
	for _, r := range rows {
		byKind[r.Kind] = r
	}
	// GDP: lowest graph/hidden shuffle, worst locality, no partition.
	if byKind[GDP].ShuffleHidden != Low || byKind[GDP].ShuffleGraph != Low {
		t.Error("GDP shuffle levels wrong")
	}
	// NFP shuffles the most hidden embeddings.
	if byKind[NFP].ShuffleHidden <= byKind[SNP].ShuffleHidden {
		t.Error("NFP hidden shuffle should exceed SNP's")
	}
	// DNP sits between GDP and SNP on hidden shuffling and can use
	// excess cache.
	if byKind[DNP].ShuffleHidden <= byKind[GDP].ShuffleHidden ||
		byKind[DNP].ShuffleHidden >= byKind[SNP].ShuffleHidden {
		t.Error("DNP should sit between GDP and SNP on hidden shuffle")
	}
	if !byKind[DNP].ExcessCache || byKind[SNP].ExcessCache || byKind[NFP].ExcessCache {
		t.Error("excess-cache column wrong")
	}
	if !byKind[NFP].PartialAggr || !byKind[SNP].PartialAggr || byKind[DNP].PartialAggr {
		t.Error("partial-aggregation column wrong")
	}
}

func TestLevelString(t *testing.T) {
	if Low.String() != "low" || VeryHigh.String() != "very-high" {
		t.Error("level names wrong")
	}
}
