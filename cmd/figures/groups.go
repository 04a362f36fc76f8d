package main

import (
	"fmt"
	"io"
	"time"

	"repro"
)

// figGroups measures what sharding the ordering layer buys — the figure
// motivating genuine atomic multicast. Panel G1 fixes the per-group size
// (3 processes per group, each group a Geo site with its own LAN wire)
// and the per-group offered rate, then grows the group count: with
// shard-local traffic every group orders independently, so the
// aggregate delivered rate scales near-linearly in the group count —
// far past the single-group capacity ceiling the paper's setup stops
// at. Panel G2 holds 4 groups fixed and raises the cross-shard traffic
// fraction: cross-group messages pay WAN dissemination plus the
// timestamp merge across destination groups, so latency degrades
// gracefully with the fraction while throughput holds.
func figGroups() []panel {
	const perGroup = 3
	// point is k groups of perGroup processes, one Geo site per group,
	// offered perGroupRate each.
	point := func(k int, perGroupRate, crossShard float64) repro.Config {
		cfg := base(k*perGroup, float64(k)*perGroupRate,
			atRes(5*time.Second, 2*time.Second), 20*time.Second, reps(3, 2))
		cfg.Topology = repro.Geo(repro.GeoConfig{
			Sites:   k,
			PerSite: perGroup,
			WAN:     repro.Wire{Delay: 5 * time.Millisecond},
		})
		cfg.Groups = repro.GroupsFromSites(cfg.Topology)
		cfg.CrossShard = crossShard
		return cfg
	}
	// rate is a point's delivered rate over its measure windows.
	rate := func(r repro.Result) float64 {
		return float64(r.Messages) / (r.Config.Measure.Seconds() * float64(r.Config.Replications))
	}

	const perGroupRate = 300.0
	var g1 []repro.Config
	for _, k := range atRes([]int{1, 2, 4, 8}, []int{1, 2, 4}) {
		g1 = append(g1, point(k, perGroupRate, 0))
	}
	const k2, perGroupRate2 = 4, 100.0
	var g2 []repro.Config
	for _, f := range atRes([]float64{0, 0.05, 0.1, 0.15, 0.2}, []float64{0, 0.1, 0.2}) {
		g2 = append(g2, point(k2, perGroupRate2, f))
	}
	return []panel{{
		head: []string{
			"# Figure G1: aggregate throughput vs group count, shard-local traffic,",
			fmt.Sprintf("# FD algorithm, %d processes per group (one Geo site per group, 5ms WAN),", perGroup),
			fmt.Sprintf("# offered %.0f/s per group — the single shared-wire group caps out near this rate.", perGroupRate),
			"# groups\tn\toffered(1/s)\tdelivered(1/s)\tspeedup\tmean(ms)\tP99\tundelivered",
		},
		steady: g1,
		// The speed-up column is relative to the first row, the single
		// group: the panel lays itself out.
		emit: func(w io.Writer, res []repro.Result) {
			single := rate(res[0])
			listing(w, res,
				func(_ int, c repro.Config) string {
					return fmt.Sprintf("%d\t%d\t%.0f", c.N/perGroup, c.N, c.Throughput)
				},
				func(r repro.Result) string {
					return fmt.Sprintf("%.1f\t%.2fx\t%.2f\t%.2f\t%d",
						rate(r), rate(r)/single, r.Latency.Mean, r.Quantiles.P99, r.Undelivered)
				}, len(res))
		},
	}, {
		head: []string{
			fmt.Sprintf("# Figure G2: graceful degradation vs cross-shard fraction, %d groups of %d,", k2, perGroup),
			fmt.Sprintf("# offered %.0f/s per group; cross-shard messages add one random extra", perGroupRate2),
			"# destination group: WAN dissemination plus the cross-group timestamp merge.",
			"# Past ~0.25 at this rate the proposal traffic saturates the LAN wires and",
			"# the merge pipeline backs up — the cross-shard capacity ceiling.",
			"# cross-shard\tdelivered(1/s)\tmean(ms)\tP50\tP90\tP99\tundelivered",
		},
		steady: g2,
		label:  func(_ int, c repro.Config) string { return fmt.Sprintf("%.2f", c.CrossShard) },
		cell: func(r repro.Result) string {
			return fmt.Sprintf("%.1f\t%.2f\t%s\t%d",
				rate(r), r.Latency.Mean, qcell(r.Quantiles, r.Quantiles.N > 0), r.Undelivered)
		},
		every: len(g2),
	}}
}
