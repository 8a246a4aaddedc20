package sample

import (
	"testing"

	"repro/internal/graph"
)

func TestRequestSetCoalesces(t *testing.T) {
	rs := NewRequestSet()
	a := rs.Add([]graph.NodeID{5, 9, 5})
	b := rs.Add([]graph.NodeID{9, 2})
	if a != 0 || b != 1 {
		t.Fatalf("request ids %d, %d, want 0, 1", a, b)
	}
	wantSeeds := []graph.NodeID{5, 9, 2}
	if got := rs.Seeds(); len(got) != len(wantSeeds) {
		t.Fatalf("seeds = %v, want %v", got, wantSeeds)
	} else {
		for i := range wantSeeds {
			if got[i] != wantSeeds[i] {
				t.Fatalf("seeds = %v, want %v", got, wantSeeds)
			}
		}
	}
	if rows := rs.Rows(a); rows[0] != 0 || rows[1] != 1 || rows[2] != 0 {
		t.Fatalf("rows(a) = %v", rows)
	}
	if rows := rs.Rows(b); rows[0] != 1 || rows[1] != 2 {
		t.Fatalf("rows(b) = %v", rows)
	}
	if rs.NumSeeds() != 3 {
		t.Fatalf("NumSeeds = %d", rs.NumSeeds())
	}
}

func TestRequestSetReset(t *testing.T) {
	rs := NewRequestSet()
	rs.Add([]graph.NodeID{1, 2, 3})
	rs.Reset()
	if rs.NumSeeds() != 0 {
		t.Fatalf("reset left %d seeds", rs.NumSeeds())
	}
	// Seeds added before Reset must not leak into the next batch's dedup.
	if id := rs.Add([]graph.NodeID{2}); id != 0 {
		t.Fatalf("first request after reset has id %d, want 0", id)
	}
	if rows := rs.Rows(0); rows[0] != 0 {
		t.Fatalf("rows after reset = %v", rows)
	}
	if got := rs.Seeds(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("seeds after reset = %v", got)
	}
}
