package engine

import (
	"repro/internal/device"
	"repro/internal/sample"
)

// FLOP accounting. Both execution modes charge the same simulated
// compute times, derived from block shapes and layer dimensions; real
// mode additionally performs the arithmetic.

// chargeDense charges f dense-matmul FLOPs to the train stage.
//
//apt:hotpath
func (w *worker) chargeDense(f float64) {
	w.dev.Charge(device.StageTrain, w.eng.cfg.Platform.DenseTime(f))
}

// chargeSparse charges f memory-bound aggregation FLOPs.
//
//apt:hotpath
func (w *worker) chargeSparse(f float64) {
	w.dev.Charge(device.StageTrain, w.eng.cfg.Platform.SparseTime(f))
}

// wireInts returns the accounted bytes of shipping n int32 values.
func wireInts(n int) int64 { return 4 * int64(n) }

// wireFloats returns the accounted bytes of shipping rows x cols float32s.
func wireFloats(rows, cols int) int64 { return 4 * int64(rows) * int64(cols) }

// blockWireBytes is the accounted size of one bipartite block: dst IDs,
// src IDs, edge pointers, and edge source indices.
func blockWireBytes(b *sample.Block) int64 {
	return wireInts(len(b.Dst)) + wireInts(len(b.Src)) +
		8*int64(len(b.EdgePtr)) + wireInts(len(b.SrcIdx))
}
