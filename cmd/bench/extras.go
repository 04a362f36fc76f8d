package main

import (
	"bytes"
	"runtime"
	"time"

	"repro"
)

// failover is the paper's Fig. 8 number: the latency overhead, beyond the
// detection time, of a message A-broadcast at the instant the coordinator
// or sequencer crashes — the time without service. It is the mean over
// N = 3 and N = 7, in virtual milliseconds, exact for a seed.
func (d *driver) failover(name string, alg repro.Algorithm) {
	defer d.span(name)()
	r := repro.Runner{Workers: 1}
	sum := 0.0
	for _, n := range []int{3, 7} {
		res := r.Transient(repro.TransientConfig{
			Config: repro.Config{
				Algorithm:    alg,
				N:            n,
				Throughput:   100,
				QoS:          repro.Detectors(10, 0, 0),
				Warmup:       time.Second,
				Drain:        15 * time.Second,
				Replications: 20,
				Seed:         d.seed,
			},
			Crash:  0,
			Sender: 1,
		})
		if res.Lost > 0 {
			d.failf("%s: %d of 20 probes lost at N=%d", name, res.Lost, n)
		}
		sum += res.Overhead.Mean
	}
	d.m.set(name, sum/2, "ms")
}

// maxRate is the highest of three fixed offered rates at which N = 3
// stays stable with a virtual p99 within 100 ms.
func (d *driver) maxRate(name string, alg repro.Algorithm) {
	defer d.span(name)()
	r := repro.Runner{Workers: 1}
	best := 0.0
	for _, rate := range []float64{100, 400, 700} {
		res := r.Steady(repro.Config{
			Algorithm:    alg,
			N:            3,
			Throughput:   rate,
			Warmup:       500 * time.Millisecond,
			Measure:      4 * time.Second,
			Drain:        10 * time.Second,
			Replications: 1,
			Seed:         d.seed,
		})
		if res.Stable && res.Quantiles.P99 <= 100 {
			best = rate
		}
	}
	d.m.set(name, best, "msgs/s")
}

// runnerSpeedup is the sweep-short pass wall at Workers 1 over Workers 2.
func (d *driver) runnerSpeedup() {
	defer d.span("runner.speedup_w2")()
	if runtime.NumCPU() < 2 {
		d.m.set("runner.speedup_w2", 0, "ratio") // single-core: nothing to measure
		return
	}
	cfgs := shortSweep()
	one, two := &repro.Runner{Workers: 1}, &repro.Runner{Workers: 2}
	var w1, w2 []float64
	for i := 0; i < d.repeats; i++ {
		_, wall := runPass(one, cfgs, d.seed+uint64(i))
		w1 = append(w1, float64(wall))
		_, wall = runPass(two, cfgs, d.seed+uint64(i))
		w2 = append(w2, float64(wall))
	}
	d.m.set("runner.speedup_w2", ratio(median(w1), median(w2)), "ratio")
}

// traceCost prices the replayable trace exporter: one fd-steady pass with
// repro.NewTrace against one without, then a replay of the recorded
// bytes, whose digests must match.
func (d *driver) traceCost() {
	defer d.span("experiment.trace")()
	cfgs := steadyGrid(repro.FD)
	r := &repro.Runner{Workers: 1}
	var plain, traced []float64
	var buf bytes.Buffer
	msgs := 0
	for i := 0; i < d.repeats; i++ {
		_, wall := runPass(r, cfgs, d.seed)
		plain = append(plain, float64(wall))

		buf.Reset()
		tr := repro.NewTrace(&buf)
		withTrace := append([]repro.Config(nil), cfgs...)
		for j := range withTrace {
			withTrace[j].Observers = []repro.ObserverFactory{tr.Observer}
		}
		start := time.Now()
		res := r.SteadyAll(withTrace)
		err := tr.Flush()
		traced = append(traced, float64(time.Since(start)))
		if err != nil {
			d.failf("trace flush: %v", err)
		}
		msgs = 0
		for _, x := range res {
			msgs += x.Messages
		}
	}
	size := buf.Len()
	start := time.Now()
	replayed, err := repro.ReplayTrace(&buf)
	replayWall := time.Since(start)
	if err != nil {
		d.failf("trace replay: %v", err)
	}
	for _, rr := range replayed {
		if !rr.Match {
			d.failf("trace replay: point %d rep %d digest differs", rr.Point, rr.Rep)
		}
	}
	d.m.set("experiment.trace_overhead_share", ratio(median(traced), median(plain))-1, "ratio")
	d.m.set("experiment.trace_bytes_per_msg", ratio(float64(size), float64(msgs)), "B/msg")
	d.m.set("experiment.replay_ms_per_rep", ratio(float64(replayWall)/1e6, float64(len(replayed))), "ms")
}

// runExtras measures what needs whole runs of its own rather than a loop
// over one layer: fail-over time, the rate ladder, the Runner pool's
// speed-up, the trace exporter's cost.
func (d *driver) runExtras() {
	d.failover("ctabcast.failover_ms", repro.FD)
	d.failover("gm.failover_ms", repro.GM)
	d.maxRate("ctabcast.max_rate", repro.FD)
	d.maxRate("seqabcast.max_rate", repro.GM)
	d.runnerSpeedup()
	d.traceCost()
}
