package repro

import (
	"bytes"
	"testing"
	"time"
)

// TestGeoWANPartitionBurstSweepPoint pins the composition "a WAN
// partition under an overload burst on a geo topology" as a single Sweep
// grid entry — Base's topology × Plans × Loads — bit-identical at 1 and 8
// workers, and replayable from its recorded trace (the header embeds
// topology, plan and load).
func TestGeoWANPartitionBurstSweepPoint(t *testing.T) {
	geo := Geo(GeoConfig{
		Sites: 3, PerSite: 3,
		WAN: Wire{Delay: 5 * time.Millisecond, Loss: 0.02},
	})
	plan := NewFaultPlan().
		PartitionSites(600*time.Millisecond, geo, 2).
		Heal(900 * time.Millisecond)
	load := NewLoadPlan().
		Burst(500*time.Millisecond, 400*time.Millisecond, AllSenders, 4)
	sweep := Sweep{
		Base: Config{
			Algorithm:    FD,
			N:            geo.N,
			Topology:     geo,
			Throughput:   60,
			QoS:          Detectors(10, 0, 0),
			Seed:         1,
			Warmup:       200 * time.Millisecond,
			Measure:      time.Second,
			Drain:        10 * time.Second,
			Replications: 2,
		},
		Plans: []*FaultPlan{plan},
		Loads: []*LoadPlan{load},
	}
	if pts := sweep.Points(); len(pts) != 1 {
		t.Fatalf("the scenario expands to %d grid points, want a single entry", len(pts))
	}

	run := func(workers int) ([]Result, []TraceDigest, *bytes.Buffer) {
		var buf bytes.Buffer
		tr := NewTrace(&buf)
		s := sweep
		s.Base.Observers = []ObserverFactory{tr.Observer}
		r := &Runner{Workers: workers}
		res := r.Sweep(s)
		digests := tr.Digests()
		if err := tr.Flush(); err != nil {
			t.Fatalf("trace flush: %v", err)
		}
		return res, digests, &buf
	}
	serial, serialDigests, trace := run(1)
	parallel, parallelDigests, _ := run(8)

	if len(serial) != 1 || len(parallel) != 1 {
		t.Fatalf("got %d serial and %d parallel results, want 1 each", len(serial), len(parallel))
	}
	s, p := serial[0], parallel[0]
	if s.Latency != p.Latency || s.Quantiles != p.Quantiles ||
		s.Messages != p.Messages || s.Undelivered != p.Undelivered {
		t.Fatalf("serial and parallel results diverge:\n  1 worker:  %+v\n  8 workers: %+v", s, p)
	}
	if len(serialDigests) != 2 {
		t.Fatalf("got %d trace digests, want one per replication", len(serialDigests))
	}
	for i := range serialDigests {
		if serialDigests[i] != parallelDigests[i] {
			t.Fatalf("delivery digest %d diverges across worker counts: %016x vs %016x",
				i, serialDigests[i].Digest, parallelDigests[i].Digest)
		}
	}
	if s.Messages == 0 {
		t.Fatal("the burst produced no measured messages")
	}

	// The trace header carries the geo topology, the WAN-cut partition
	// and the burst; replaying must rebuild all three and reproduce the
	// delivery digests exactly.
	replays, err := ReplayTrace(bytes.NewReader(trace.Bytes()))
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(replays) != 2 {
		t.Fatalf("replayed %d replications, want 2", len(replays))
	}
	for _, r := range replays {
		if !r.Match {
			t.Fatalf("replay of point %d rep %d diverged: recorded %016x, replayed %016x",
				r.Point, r.Rep, r.Recorded, r.Replayed)
		}
	}
}
