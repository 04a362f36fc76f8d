package main

import (
	"fmt"
	"strings"
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
func figNScale() []panel {
	shapes := []func(n int) *repro.Topology{
		repro.FullMesh,
		repro.Clique,
		repro.Ring,
		func(n int) *repro.Topology {
			return repro.Geo(repro.GeoConfig{
				Sites:   4,
				PerSite: n / 4,
				WAN:     repro.Wire{Delay: 5 * time.Millisecond},
			})
		},
	}
	var pts []repro.Config
	for _, n := range atRes([]int{64, 256, 512}, []int{16, 64, 256}) {
		for _, shape := range shapes {
			cfg := base(n, 3, 5*time.Second, 60*time.Second, reps(2, 2))
			cfg.Topology = shape(n)
			pts = append(pts, cfg)
		}
	}
	return []panel{{
		head: []string{
			"# Figure N: latency vs system size across topologies, FD algorithm,",
			"# total rate 3/s (batching keeps large n stable; latency is the signal).",
			"# geo = 4 sites joined pairwise by 5ms WAN links through gateways.",
			"# n\ttopology\tmean(ms)\tci\tP50\tP90\tP99\tmessages\tundelivered",
		},
		steady: pts,
		label: func(_ int, c repro.Config) string {
			// Generated topologies are named "<shape>-<size>".
			shape, _, _ := strings.Cut(c.Topology.Name, "-")
			return fmt.Sprintf("%d\t%s", c.N, shape)
		},
		cell: func(r repro.Result) string {
			return fmt.Sprintf("%s\t%s\t%d\t%d", meanCI(r.Latency), qcell(r.Quantiles, r.Quantiles.N > 0), r.Messages, r.Undelivered)
		},
		every: len(shapes), // one block per size
	}}
}
