package main

import (
	"fmt"
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
func figGroups() {
	const perGroup = 3
	const perGroupRate = 300.0
	ks := []int{1, 2, 4, 8}
	measure := 5 * time.Second
	reps := 3
	if *quickFlag {
		ks = []int{1, 2, 4}
		measure = 2 * time.Second
		reps = 2
	}
	if *repsFlag > 0 {
		reps = *repsFlag
	}
	geo := func(k int) *repro.Topology {
		return repro.Geo(repro.GeoConfig{
			Sites:   k,
			PerSite: perGroup,
			WAN:     repro.Wire{Delay: 5 * time.Millisecond},
		})
	}

	fmt.Println("# Figure G1: aggregate throughput vs group count, shard-local traffic,")
	fmt.Printf("# FD algorithm, %d processes per group (one Geo site per group, 5ms WAN),\n", perGroup)
	fmt.Printf("# offered %.0f/s per group — the single shared-wire group caps out near this rate.\n", perGroupRate)
	fmt.Println("# groups\tn\toffered(1/s)\tdelivered(1/s)\tspeedup\tmean(ms)\tP99\tundelivered")
	var cfgs []repro.Config
	for _, k := range ks {
		t := geo(k)
		cfgs = append(cfgs, repro.Config{
			Algorithm:    repro.FD,
			N:            k * perGroup,
			Throughput:   float64(k) * perGroupRate,
			Topology:     t,
			Groups:       repro.GroupsFromSites(t),
			Seed:         *seedFlag,
			Warmup:       time.Second,
			Measure:      measure,
			Drain:        20 * time.Second,
			Replications: reps,
		})
	}
	res := runner.SteadyAll(cfgs)
	rate := func(r repro.Result) float64 {
		return float64(r.Messages) / (measure.Seconds() * float64(reps))
	}
	base := rate(res[0])
	for i, k := range ks {
		r := res[i]
		fmt.Printf("%d\t%d\t%.0f\t%.1f\t%.2fx\t%.2f\t%.2f\t%d\n",
			k, k*perGroup, float64(k)*perGroupRate, rate(r), rate(r)/base,
			r.Latency.Mean, r.Quantiles.P99, r.Undelivered)
	}
	fmt.Println()

	const k2 = 4
	const perGroupRate2 = 100.0
	fractions := []float64{0, 0.05, 0.1, 0.15, 0.2}
	if *quickFlag {
		fractions = []float64{0, 0.1, 0.2}
	}
	fmt.Printf("# Figure G2: graceful degradation vs cross-shard fraction, %d groups of %d,\n", k2, perGroup)
	fmt.Printf("# offered %.0f/s per group; cross-shard messages add one random extra\n", perGroupRate2)
	fmt.Println("# destination group: WAN dissemination plus the cross-group timestamp merge.")
	fmt.Println("# Past ~0.25 at this rate the proposal traffic saturates the LAN wires and")
	fmt.Println("# the merge pipeline backs up — the cross-shard capacity ceiling.")
	fmt.Println("# cross-shard\tdelivered(1/s)\tmean(ms)\tP50\tP90\tP99\tundelivered")
	t2 := geo(k2)
	var cfgs2 []repro.Config
	for _, f := range fractions {
		cfgs2 = append(cfgs2, repro.Config{
			Algorithm:    repro.FD,
			N:            k2 * perGroup,
			Throughput:   k2 * perGroupRate2,
			Topology:     t2,
			Groups:       repro.GroupsFromSites(t2),
			CrossShard:   f,
			Seed:         *seedFlag,
			Warmup:       time.Second,
			Measure:      measure,
			Drain:        20 * time.Second,
			Replications: reps,
		})
	}
	res2 := runner.SteadyAll(cfgs2)
	for i, f := range fractions {
		r := res2[i]
		fmt.Printf("%.2f\t%.1f\t%.2f\t%s\t%d\n",
			f, rate(r), r.Latency.Mean, qcell(r.Quantiles, r.Quantiles.N > 0), r.Undelivered)
	}
	fmt.Println()
}
