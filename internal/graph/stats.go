package graph

import (
	"fmt"
	"sort"
	"strings"
)

// SkewBucket is one row of an access-skew table (paper Table 3): the
// fraction of all accesses attributable to nodes in a popularity-rank
// band.
type SkewBucket struct {
	// LoRank and HiRank bound the rank band as fractions of the node
	// count, e.g. [0, 0.01) is the top-1% most accessed nodes.
	LoRank, HiRank float64
	// AccessRatio is that band's share of total accesses.
	AccessRatio float64
}

// AccessSkew ranks nodes by the supplied access frequencies and returns
// the paper's Table 3 rank bands.
func AccessSkew(freq []int64) []SkewBucket {
	n := len(freq)
	sorted := make([]int64, n)
	copy(sorted, freq)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	var total int64
	for _, f := range sorted {
		total += f
	}
	bands := [][2]float64{{0, 0.01}, {0.01, 0.05}, {0.05, 0.10}, {0.10, 0.20}, {0.20, 0.50}, {0.50, 1.00}}
	out := make([]SkewBucket, 0, len(bands))
	for _, b := range bands {
		lo := int(b[0] * float64(n))
		hi := int(b[1] * float64(n))
		if hi > n {
			hi = n
		}
		var s int64
		for i := lo; i < hi; i++ {
			s += sorted[i]
		}
		ratio := 0.0
		if total > 0 {
			ratio = float64(s) / float64(total)
		}
		out = append(out, SkewBucket{LoRank: b[0], HiRank: b[1], AccessRatio: ratio})
	}
	return out
}

// FormatSkewTable renders skew buckets like the paper's Table 3 rows.
func FormatSkewTable(buckets []SkewBucket) string {
	var sb strings.Builder
	for _, b := range buckets {
		fmt.Fprintf(&sb, "%5.0f%%~%-4.0f%%  %6.1f%%\n", b.LoRank*100, b.HiRank*100, b.AccessRatio*100)
	}
	return sb.String()
}
