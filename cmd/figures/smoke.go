package main

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"repro"
)

// smokeGrids are the pinned grids of -fig smoke, one per layer CI wants
// exercised end to end, trace record and replay included. Each row states
// what it varies; figSmoke pins the rest (FD, seed 1, 200 ms warmup, 5 s
// drain, two replications).
var smokeGrids = []struct {
	title       string
	undelivered bool // the grid reports an undelivered column
	sweep       repro.Sweep
}{
	// The abstract QoS model against the concrete heartbeat detector.
	{"# Smoke grid: FD n=3 T=50/s seed=1, QoS model (point 0) vs heartbeat 10/30ms (point 1)", false, repro.Sweep{
		Base:      repro.Config{N: 3, Throughput: 50, Measure: time.Second},
		Detectors: []*repro.HeartbeatConfig{nil, repro.HeartbeatDetector(10, 30)},
	}},
	// The FaultPlan path: a partition-and-heal mid-measure.
	{"# Plan grid: partition {0 1}|{2} at 600ms, heal at 900ms; FD (point 0) vs GM (point 1)", true, repro.Sweep{
		Base: repro.Config{N: 3, Throughput: 50, Measure: time.Second, QoS: td10,
			Plan: repro.NewFaultPlan().
				Partition(600*time.Millisecond, []repro.ProcessID{0, 1}, []repro.ProcessID{2}).
				Heal(900 * time.Millisecond)},
		Algorithms: fdgm,
	}},
	// The LoadPlan path: a 4x burst plus a mute/unmute of sender 2.
	{"# Load grid: 4x burst 400..600ms + mute p2 600..900ms; FD (point 0) vs GM (point 1)", true, repro.Sweep{
		Base: repro.Config{N: 3, Throughput: 50, Measure: time.Second, QoS: td10,
			Load: repro.NewLoadPlan().
				Burst(400*time.Millisecond, 200*time.Millisecond, repro.AllSenders, 4).
				Mute(600*time.Millisecond, 2).
				Unmute(900*time.Millisecond, 2)},
		Algorithms: fdgm,
	}},
	// A long outage — p2 down for a full second of dense traffic, far
	// more decisions than the FD consensus instance window retains — so
	// the decision-log catch-up path runs (GM rides the same plan through
	// its rejoin machinery).
	{"# Outage grid: crash p2 at 300ms, recover at 1300ms, T=150/s; FD (point 0) vs GM (point 1)", true, repro.Sweep{
		Base: repro.Config{N: 3, Throughput: 150, Measure: 1300 * time.Millisecond, QoS: td10,
			Plan: repro.NewFaultPlan().
				Crash(300*time.Millisecond, 2).
				Recover(1300*time.Millisecond, 2)},
		Algorithms: fdgm,
	}},
	// The group-sharded ordering layer: one point per GroupMap across the
	// overlap spectrum (disjoint shards, finer shards, chained bridges) at
	// a fixed cross-shard mix — group-addressed dissemination, per-group
	// stacks and the cross-group timestamp merge (the trace header embeds
	// each point's GroupMap spec).
	{"# Group grid: n=6 T=60/s cross-shard=0.25; disjoint/2 (point 0), disjoint/3 (point 1), chained/3 (point 2)", true, repro.Sweep{
		Base:      repro.Config{N: 6, Throughput: 60, Measure: time.Second, QoS: td10, CrossShard: 0.25},
		GroupMaps: []*repro.GroupMap{repro.Disjoint(6, 2), repro.Disjoint(6, 3), repro.Chained(6, 3)},
	}},
}

// figSmoke runs the smokeGrids with the trace observer attached and
// prints each point's summary plus each replication's delivery digest.
// Everything is pinned (seed, durations, grids), so the output is
// byte-stable across machines and lives in golden/figures_smoke.tsv; CI
// regenerates it and fails on any diff, then replays the trace. The
// -trace flag selects the trace file (default: the null device).
func figSmoke() []panel {
	path := *traceFlag
	if path == "" {
		path = os.DevNull
	}
	file, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "trace file: %v\n", err)
		os.Exit(1)
	}
	tr := repro.NewTrace(file)
	var ps []panel
	for i, g := range smokeGrids {
		last := i == len(smokeGrids)-1
		head, cell := "# point\tmean(ms)\tP50\tP90\tP99\tmessages", smokeCell
		if g.undelivered {
			head += "\tundelivered"
			cell = func(r repro.Result) string { return fmt.Sprintf("%s\t%d", smokeCell(r), r.Undelivered) }
		}
		pin := &g.sweep.Base
		pin.Algorithm, pin.Seed, pin.Replications = repro.FD, 1, 2
		pin.Warmup, pin.Drain = 200*time.Millisecond, 5*time.Second
		pin.Observers = []repro.ObserverFactory{tr.Observer}
		ps = append(ps, panel{
			head:   []string{g.title, head},
			steady: g.sweep.Points(),
			// After the rows, the digests the trace observer collected for
			// this grid; then the grid's replications go to the trace file.
			emit: func(w io.Writer, res []repro.Result) {
				listing(w, res, func(i int, _ repro.Config) string { return strconv.Itoa(i) }, cell, 0)
				fmt.Fprintln(w, "# point\trep\tdelivery_digest")
				for _, d := range tr.Digests() {
					fmt.Fprintf(w, "%d\t%d\t%016x\n", d.Point, d.Rep, d.Digest)
				}
				err := tr.Flush()
				if err == nil && last {
					err = file.Close()
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "trace: %v\n", err)
					os.Exit(1)
				}
			},
		})
	}
	return ps
}

// smokeCell is a smoke row: mean, quantiles and message count at the four
// decimals the golden pins.
func smokeCell(r repro.Result) string {
	return fmt.Sprintf("%.4f\t%.4f\t%.4f\t%.4f\t%d",
		r.Latency.Mean, r.Quantiles.P50, r.Quantiles.P90, r.Quantiles.P99, r.Messages)
}
