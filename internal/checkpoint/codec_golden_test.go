package checkpoint

import (
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// TestSectionIDsGolden pins the section-id assignments and the
// container header. Snapshots outlive binaries — kill-and-resume and
// elastic re-join decode files written by older builds — so a changed
// id or header here is a format break: add a new id (and bump
// snapVersion for header changes) instead of editing these.
func TestSectionIDsGolden(t *testing.T) {
	ids := []struct {
		name string
		id   uint8
		want uint8
	}{
		{"secMeta", secMeta, 1},
		{"secModel", secModel, 2},
		{"secOpt", secOpt, 3},
		{"secRNG", secRNG, 4},
		{"secFreq", secFreq, 5},
		{"secAdaptive", secAdaptive, 6},
	}
	for _, s := range ids {
		if s.id != s.want {
			t.Errorf("%s = %d, want %d", s.name, s.id, s.want)
		}
	}

	// A full snapshot must serialize its sections in id order with the
	// pinned container header: magic "APTS" (LE), version 2, count 6.
	b, err := fullSnapshot(t).Encode()
	if err != nil {
		t.Fatal(err)
	}
	const wantHeader = "53545041" + "02000000" + "06000000"
	if got := hex.EncodeToString(b[:12]); got != wantHeader {
		t.Fatalf("container header = %s, want %s", got, wantHeader)
	}
	var order []uint8
	for off := 12; off < len(b); {
		id := b[off]
		bodyLen := binary.LittleEndian.Uint32(b[off+1 : off+5])
		order = append(order, id)
		off += 5 + int(bodyLen) + 4 // header, body, crc
	}
	for i, s := range ids {
		if i >= len(order) || order[i] != s.want {
			t.Fatalf("section order = %v, want ids 1..6 in sequence", order)
		}
	}
}
