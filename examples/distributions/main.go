// Distributions: one sweep point's measured latency distribution
// (Result.Dist) and a replayable trace. A suspicion-steady run splits
// into two latency populations — most messages deliver at failure-free
// latency, the rest pay for a wrong suspicion — and the mean with a 95%
// CI cannot show that. This example prints the quantiles, the early/late
// split and a histogram, exports the trace, and replays it.
//
//	go run ./examples/distributions
package main

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"repro"
)

func main() {
	// One suspicion-steady point: GM at TMR = 200 ms pays a view change
	// per wrong suspicion.
	cfg := repro.Config{
		Algorithm:    repro.GM,
		N:            3,
		Throughput:   100,
		QoS:          repro.Detectors(0, 200, 0),
		Warmup:       500 * time.Millisecond,
		Measure:      4 * time.Second,
		Drain:        10 * time.Second,
		Replications: 3,
	}

	// Attach a cross-cutting observer: a replayable trace.
	var traceBuf bytes.Buffer
	tr := repro.NewTrace(&traceBuf)
	cfg.Observers = []repro.ObserverFactory{tr.Observer}

	res := repro.RunSteady(cfg)

	fmt.Println("Suspicion-steady, GM, n=3, T=100/s, TMR=200ms, TM=0")
	fmt.Printf("  mean over replications: %s ms\n", res.Latency)
	q := res.Quantiles
	fmt.Printf("  quantiles (measured window): P50=%.2f  P90=%.2f  P99=%.2f ms  (n=%d)\n",
		q.P50, q.P90, q.P99, q.N)

	// The early/late split: messages under 2x the median are the
	// failure-free population, the rest were hit by a view change.
	threshold := 2 * q.P50
	early, late := res.Dist.SplitAt(threshold)
	fmt.Printf("  split at %.1f ms: %d early (mean %.2f), %d late (mean %.2f)\n",
		threshold, early.N(), early.Mean(), late.N(), late.Mean())

	// A coarse histogram of the same distribution.
	h := res.Dist.Histogram(0, 4*q.P90, 12)
	fmt.Println("  histogram:")
	for i, count := range h.Counts {
		fmt.Printf("    %6.1f ms %s %d\n", h.BinCenter(i), strings.Repeat("#", scale(count, h.Total())), count)
	}

	// Export and replay: the trace embeds each replication's config and
	// delivery digest, and the simulation is deterministic, so the trace
	// replays bit-for-bit anywhere.
	if err := tr.Flush(); err != nil {
		panic(err)
	}
	results, err := repro.ReplayTrace(bytes.NewReader(traceBuf.Bytes()))
	if err != nil {
		panic(err)
	}
	ok := 0
	for _, r := range results {
		if r.Match {
			ok++
		}
	}
	fmt.Printf("  trace: %d bytes, %d replications, %d replay digests match\n",
		traceBuf.Len(), len(results), ok)
}

// scale maps a bin count to a bar length of at most 40 characters.
func scale(count, total int) int {
	if total == 0 {
		return 0
	}
	return count * 40 / total
}
