package repro

// Public facade: the user-facing API of APT-Go, re-exported from the
// internal packages so downstream modules can import module path
// "repro" directly (Go's internal/ rule restricts import paths, not
// type identity). The surface is structured by concern:
//
//	apt.go        — the core system: tasks, planning, training
//	data.go       — graphs, datasets, platforms, partitioning
//	checkpoint.go — snapshots: checkpoint, resume, crash recovery
//	serving.go    — online inference serving, model hot-swap
//	observe.go    — observability: spans, metrics, Chrome traces
//	options.go    — the shared functional Option type
//
// The facade mirrors the lifecycle of a training job under the
// paper's system: describe a task, let APT plan, train, snapshot,
// serve — and, because the snapshot is the whole training state,
// resume any of it after a crash or onto different hardware.
//
//	task := repro.Task{ Graph: g, NewModel: ..., Platform: repro.SingleMachine8GPU(), ... }
//	apt, err := repro.NewAPT(task, repro.WithCheckpointDir(dir))
//	result, err := apt.Train(10)   // rolling snapshot every epoch
//	srv, err := repro.Serve(cfg, repro.WithReload(dir+"/"+repro.SnapshotName))

import (
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/nn"
	"repro/internal/strategy"
)

// Core system types.
type (
	// Task specifies a GNN training job (graph, model, sampling,
	// platform); see core.Task for field documentation.
	Task = core.Task
	// APT is the adaptive parallel training system.
	APT = core.APT
	// Result summarizes a Train run.
	Result = core.Result
	// Estimate is one strategy's predicted epoch cost.
	Estimate = core.Estimate
	// CostModel converts dry-run volumes into time estimates.
	CostModel = core.CostModel
	// EpochStats is one epoch's time decomposition and volumes.
	EpochStats = engine.EpochStats
	// Model is a GNN model.
	Model = nn.Model
	// Optimizer updates model parameters.
	Optimizer = nn.Optimizer
)

// Strategy identifies a parallelization strategy; its String method
// and ParseStrategy round-trip the canonical names.
type Strategy = strategy.Kind

// The parallelization strategies.
const (
	GDP = strategy.GDP
	NFP = strategy.NFP
	SNP = strategy.SNP
	DNP = strategy.DNP
)

// CoreStrategies lists the four strategies APT's planner selects
// among.
var CoreStrategies = strategy.Core

// ParseStrategy converts a strategy name ("GDP", "dnp", ...) to its
// Strategy; the inverse of Strategy.String.
var ParseStrategy = strategy.Parse

// NewAPT validates a task and creates the system. Options attach
// observers (WithObserver, WithTracePath) and configure the rolling
// checkpoint (WithCheckpointDir).
func NewAPT(task Task, opts ...Option) (*APT, error) {
	a, err := core.New(task, obsOf(opts)...)
	if err != nil {
		return nil, err
	}
	applyAPT(a, opts)
	return a, nil
}

// Constructors and entry points of the core system.
var (
	// NewGraphSAGE and NewGAT build the paper's evaluation models.
	NewGraphSAGE = nn.NewGraphSAGE
	NewGAT       = nn.NewGAT
	// NewSGD and NewAdam build optimizers.
	NewSGD  = nn.NewSGD
	NewAdam = nn.NewAdam
	// Evaluate computes test accuracy of a trained model.
	Evaluate = engine.Evaluate
	// DescribePlan renders a strategy's adapted execution plan.
	DescribePlan = engine.DescribePlan
)
