// Custom graphs: feed your own edge list (SNAP text format) through
// the full APT pipeline. This example embeds Zachary's karate club —
// the classic 2-community graph — partitions it offline (the step a
// real graph does once and reuses across tasks), builds features from
// the community labels, and trains with automatic strategy selection
// on 2 simulated GPUs.
//
//	go run ./examples/custom_graph
package main

import (
	"fmt"
	"log"
	"math/rand/v2"
	"strings"

	"repro"
)

// Zachary's karate club (34 nodes; instructor faction vs administrator
// faction after the split).
const karateEdges = `
0 1
0 2
0 3
0 4
0 5
0 6
0 7
0 8
0 10
0 11
0 12
0 13
0 17
0 19
0 21
0 31
1 2
1 3
1 7
1 13
1 17
1 19
1 21
1 30
2 3
2 7
2 8
2 9
2 13
2 27
2 28
2 32
3 7
3 12
3 13
4 6
4 10
5 6
5 10
5 16
6 16
8 30
8 32
8 33
9 33
13 33
14 32
14 33
15 32
15 33
18 32
18 33
19 33
20 32
20 33
22 32
22 33
23 25
23 27
23 29
23 32
23 33
24 25
24 27
24 31
25 31
26 29
26 33
27 33
28 31
28 33
29 32
29 33
30 32
30 33
31 32
31 33
32 33
`

// The administrator's faction after the split (node 33's side).
var faction33 = map[int]bool{
	8: true, 9: true, 14: true, 15: true, 18: true, 20: true, 22: true,
	23: true, 24: true, 25: true, 26: true, 27: true, 28: true, 29: true,
	30: true, 31: true, 32: true, 33: true,
}

func main() {
	g, err := repro.ReadEdgeList(strings.NewReader(karateEdges),
		repro.EdgeListOptions{Undirected: true, DropSelfLoops: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("karate club: %d nodes, %d edges\n", g.NumNodes(), g.NumEdges())

	// The offline step: partition once for the 2 devices, with the
	// settings APT's own Prepare would use, and hand the result over.
	part := repro.MultilevelPartition(g, 2, repro.PartitionConfig{Seed: 4, EdgeBalanced: true})
	cut := 0
	for v := range g.NumNodes() {
		for _, u := range g.Neighbors(repro.NodeID(v)) {
			if part.Assign[u] != part.Assign[v] {
				cut++
			}
		}
	}

	n := g.NumNodes()
	labels := make([]int32, n)
	feats := &repro.Matrix{Rows: n, Cols: 4, Data: make([]float32, n*4)}
	rng := rand.New(rand.NewPCG(1, 2))
	seeds := make([]repro.NodeID, n)
	for v := range n {
		if faction33[v] {
			labels[v] = 1
		}
		row := feats.Data[v*4 : (v+1)*4]
		for j := range row {
			row[j] = float32(0.5 * rng.NormFloat64())
		}
		row[labels[v]]++
		seeds[v] = repro.NodeID(v)
	}

	task := repro.Task{
		Graph:   g,
		Feats:   feats,
		Labels:  labels,
		FeatDim: 4,
		Seeds:   seeds,
		NewModel: func() *repro.Model {
			return repro.NewGraphSAGE(4, 8, 2, 2)
		},
		NewOptimizer: func() repro.Optimizer { return repro.NewAdam(0.05) },
		Sampling:     repro.SamplingConfig{Fanouts: []int{5, 5}},
		BatchSize:    8,
		Platform:     repro.WithDevices(repro.SingleMachine8GPU(), 1, 2),
		Partition:    part,
		Seed:         4,
	}
	apt, err := repro.NewAPT(task)
	if err != nil {
		log.Fatal(err)
	}
	res, err := apt.Train(30)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("APT selected %v; 2-way partition edge cut %.0f%%\n", res.Choice, 100*float64(cut)/float64(g.NumEdges()))
	acc := repro.Evaluate(g, res.Model, feats, labels, seeds, task.Sampling, 34, 1)
	fmt.Printf("faction classification accuracy after %d epochs: %.2f\n", len(res.Epochs), acc)
}
