// Package repro is APT-Go, a from-scratch Go reproduction of
// "Adaptive Parallel Training for Graph Neural Networks" (PPoPP 2025):
// a system that automatically selects among four GNN parallelization
// strategies (GDP, NFP, SNP, DNP) using dry-run-driven cost models and
// executes the choice on a unified multi-device engine.
//
// This package is the public API: the names a module outside this one
// can import (apt.go lists them by concern). The runnable examples
// under examples/ are written against it alone.
//
// The implementation lives under internal/: see internal/core for the APT
// system, internal/engine for the unified execution engine (one layer
// walk; a strategy is a placement value), internal/nn for the models
// (adding a model = implementing the one nn.Layer interface, whose two
// halves every layer runs as),
// internal/strategy for the strategy kinds, and internal/experiments
// for the paper's evaluation harness. Entry points are the commands under
// cmd/ and the examples.
package repro
