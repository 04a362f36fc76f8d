package main

import (
	"fmt"
	"time"

	"repro"
)

// figNScale measures how atomic broadcast latency scales with the system
// size on different connectivity graphs — the figure the paper could not
// draw on its single shared Ethernet. The same FD workload runs at a
// fixed total rate on four topologies per n: the paper's full mesh (one
// contended wire), a clique (a dedicated wire per pair — only CPUs
// contend), a ring (constant per-wire contention, O(n) propagation) and
// a geo-replicated layout (four datacenter cliques joined by 5 ms WAN
// links through gateways). The spread between the curves is pure
// dissemination topology: the agreement protocol, workload and seed are
// identical across a row.
func figNScale() {
	ns := []int{64, 256, 512}
	if *quickFlag {
		ns = []int{16, 64, 256}
	}
	reps := 2
	if *repsFlag > 0 {
		reps = *repsFlag
	}
	shapes := []struct {
		name  string
		build func(n int) *repro.Topology
	}{
		{"fullmesh", repro.FullMesh},
		{"clique", repro.Clique},
		{"ring", repro.Ring},
		{"geo", func(n int) *repro.Topology {
			return repro.Geo(repro.GeoConfig{
				Sites:   4,
				PerSite: n / 4,
				WAN:     repro.Wire{Delay: 5 * time.Millisecond},
			})
		}},
	}
	fmt.Println("# Figure N: latency vs system size across topologies, FD algorithm,")
	fmt.Println("# total rate 3/s (batching keeps large n stable; latency is the signal).")
	fmt.Println("# geo = 4 sites joined pairwise by 5ms WAN links through gateways.")
	fmt.Println("# n\ttopology\tmean(ms)\tci\tP50\tP90\tP99\tmessages\tundelivered")
	var cfgs []repro.Config
	for _, n := range ns {
		for _, shape := range shapes {
			cfgs = append(cfgs, repro.Config{
				Algorithm:    repro.FD,
				N:            n,
				Throughput:   3,
				Topology:     shape.build(n),
				Seed:         *seedFlag,
				Warmup:       time.Second,
				Measure:      5 * time.Second,
				Drain:        60 * time.Second,
				Replications: reps,
			})
		}
	}
	res := runner.SteadyAll(cfgs)
	for i, r := range res {
		fmt.Printf("%d\t%s\t%s\t%s\t%d\t%d\n",
			r.Config.N, shapes[i%len(shapes)].name,
			cellAny(r), qcell(r.Quantiles, r.Quantiles.N > 0),
			r.Messages, r.Undelivered)
		if i%len(shapes) == len(shapes)-1 {
			// Blank line between size blocks for gnuplot indexing.
			fmt.Println()
		}
	}
}
