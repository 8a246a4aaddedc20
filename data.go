package repro

// Data surface of the facade: graphs, features, synthetic datasets,
// simulated platforms, partitioning, and sampling.

import (
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/hardware"
	"repro/internal/partition"
	"repro/internal/sample"
	"repro/internal/tensor"
)

// Data types.
type (
	// Graph is a CSR graph; NodeID indexes its nodes.
	Graph  = graph.Graph
	NodeID = graph.NodeID
	// Matrix is a dense float32 matrix (features, embeddings).
	Matrix = tensor.Matrix
	// Platform describes a simulated training cluster.
	Platform = hardware.Platform
	// Partitioning assigns nodes to devices.
	Partitioning = partition.Partitioning
	// SamplingConfig selects the graph-sampling algorithm.
	SamplingConfig = sample.Config
	// Dataset is a materialized synthetic dataset preset.
	Dataset = dataset.Dataset
	// DatasetSpec describes a synthetic dataset.
	DatasetSpec = dataset.Spec
	// PartitionConfig tunes the multilevel partitioner.
	PartitionConfig = partition.MultilevelConfig
	// EdgeListOptions configures ReadEdgeList.
	EdgeListOptions = graph.EdgeListOptions
)

// Constructors and entry points of the data surface.
var (
	// SingleMachine8GPU and FourMachines4GPU are the paper's platforms.
	SingleMachine8GPU = hardware.SingleMachine8GPU
	FourMachines4GPU  = hardware.FourMachines4GPU
	// WithDevices adjusts a platform's topology.
	WithDevices = hardware.WithDevices
	// MultilevelPartition is the METIS-style partitioner.
	MultilevelPartition = partition.Multilevel
	// BuildDataset materializes a synthetic dataset preset.
	BuildDataset = dataset.Build
	// DatasetPresets lists the paper's three evaluation datasets.
	DatasetPresets = dataset.Presets
	// ReadEdgeList parses a SNAP-style text edge list.
	ReadEdgeList = graph.ReadEdgeList
)
