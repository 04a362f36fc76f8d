package experiment

import (
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/ctabcast"
	"repro/internal/fd"
	"repro/internal/netmodel"
	"repro/internal/proto"
	"repro/internal/seqabcast"
	"repro/internal/sim"
	"repro/internal/stats"
)

// runSchedule executes one algorithm against an explicit broadcast
// schedule and returns each message's first-delivery time plus network
// counters.
func runSchedule(alg Algorithm, n int, schedule []scheduledSend) (map[proto.MsgID]sim.Time, netmodel.Counters) {
	eng := sim.New()
	sys := proto.NewSystem(eng, netmodel.DefaultConfig(n), fd.QoS{}, sim.NewRand(1))
	first := make(map[proto.MsgID]sim.Time)
	bcast := make([]func(any) proto.MsgID, n)
	for i := 0; i < n; i++ {
		deliver := func(id proto.MsgID, body any) {
			if _, seen := first[id]; !seen {
				first[id] = eng.Now()
			}
		}
		switch alg {
		case FD:
			p := ctabcast.New(sys.Proc(proto.PID(i)), ctabcast.Config{Deliver: deliver, Renumber: true})
			sys.SetHandler(proto.PID(i), p)
			bcast[i] = p.ABroadcast
		case GM:
			p := seqabcast.New(sys.Proc(proto.PID(i)), seqabcast.Config{Deliver: deliver, Uniform: true})
			sys.SetHandler(proto.PID(i), p)
			bcast[i] = p.ABroadcast
		}
	}
	sys.Start()
	for _, s := range schedule {
		s := s
		eng.Schedule(s.at, func() { bcast[s.sender](nil) })
	}
	eng.Run()
	return first, sys.Net.Counters()
}

type scheduledSend struct {
	at     sim.Time
	sender int
}

// TestMessagePatternEquivalenceProperty is the §4.4 claim as a property
// test: for ANY failure-free arrival schedule, the FD and GM algorithms
// produce identical first-delivery instants for every message and use the
// wire identically.
func TestMessagePatternEquivalenceProperty(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		rng := sim.NewRand(seed)
		n := []int{3, 5, 7}[rng.Intn(3)]
		count := 5 + rng.Intn(60)
		schedule := make([]scheduledSend, count)
		at := sim.Time(0)
		for i := range schedule {
			at = at.Add(time.Duration(rng.Intn(8000)) * time.Microsecond)
			schedule[i] = scheduledSend{at: at, sender: rng.Intn(n)}
		}
		fdTimes, fdCounters := runSchedule(FD, n, schedule)
		gmTimes, gmCounters := runSchedule(GM, n, schedule)
		if len(fdTimes) != count || len(gmTimes) != count {
			t.Fatalf("seed %d: delivered %d/%d messages (FD/GM), want %d",
				seed, len(fdTimes), len(gmTimes), count)
		}
		for id, ft := range fdTimes {
			gt, ok := gmTimes[id]
			if !ok {
				t.Fatalf("seed %d: %v missing under GM", seed, id)
			}
			if ft != gt {
				t.Fatalf("seed %d: first delivery of %v differs: FD %v vs GM %v",
					seed, id, ft, gt)
			}
		}
		if fdCounters.WireSlots != gmCounters.WireSlots ||
			fdCounters.Unicasts != gmCounters.Unicasts ||
			fdCounters.Multicasts != gmCounters.Multicasts {
			t.Fatalf("seed %d: wire usage differs: FD %+v vs GM %+v",
				seed, fdCounters, gmCounters)
		}
	}
}

// TestSweepDeterministicAcrossWorkers is the Runner's central contract:
// the same Sweep at 1 worker and at many workers produces bit-identical
// Results, because every replication is an independent deterministic
// simulation and aggregation merges them in canonical (point,
// replication) order regardless of completion order.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	base := Config{
		Algorithm:    FD,
		N:            3,
		Seed:         11,
		Warmup:       300 * time.Millisecond,
		Measure:      2 * time.Second,
		Drain:        8 * time.Second,
		Replications: 3,
	}
	// The perfect detectors and wrong suspicions every 500 ms: one Base
	// each, the detector QoS being no axis.
	var pts []Config
	for _, qos := range []fd.QoS{{}, {TMR: 500 * time.Millisecond}} {
		base.QoS = qos
		pts = append(pts, Sweep{
			Base:        base,
			Algorithms:  []Algorithm{FD, GM},
			Throughputs: []float64{20, 200},
		}.Points()...)
	}
	serial := (&Runner{Workers: 1}).SteadyAll(pts)
	workerCounts := []int{runtime.GOMAXPROCS(0), 4, 7}
	for _, w := range workerCounts {
		parallel := (&Runner{Workers: w}).SteadyAll(pts)
		if len(parallel) != len(serial) {
			t.Fatalf("workers=%d: %d results, want %d", w, len(parallel), len(serial))
		}
		for i := range serial {
			if !resultsBitIdentical(serial[i], parallel[i]) {
				t.Fatalf("workers=%d: point %d differs from the serial run:\nserial:   %+v\nparallel: %+v",
					w, i, serial[i], parallel[i])
			}
		}
	}
	// The results must keep the points' order and cover every point.
	if len(pts) != 8 || len(serial) != 8 {
		t.Fatalf("expected 2x2x2 = 8 points, got %d points and %d results", len(pts), len(serial))
	}
	for i, res := range serial {
		if res.Config.Algorithm != pts[i].Algorithm ||
			res.Config.Throughput != pts[i].Throughput ||
			res.Config.QoS != pts[i].QoS {
			t.Fatalf("result %d out of order: got %+v, want axes of %+v", i, res.Config, pts[i])
		}
		if res.Messages == 0 {
			t.Fatalf("point %d measured nothing: %+v", i, res)
		}
	}
}

// resultsBitIdentical compares two Results field by field, with floats
// compared by bit pattern so NaNs (empty-sample statistics) compare equal
// to themselves.
func resultsBitIdentical(a, b Result) bool {
	return summariesBitIdentical(a.Latency, b.Latency) &&
		summariesBitIdentical(a.PerMessage, b.PerMessage) &&
		a.Messages == b.Messages &&
		a.Undelivered == b.Undelivered &&
		a.Stable == b.Stable &&
		a.Diverged == b.Diverged
}

func summariesBitIdentical(a, b stats.Summary) bool {
	return a.N == b.N &&
		math.Float64bits(a.Mean) == math.Float64bits(b.Mean) &&
		math.Float64bits(a.StdDev) == math.Float64bits(b.StdDev) &&
		math.Float64bits(a.CI95) == math.Float64bits(b.CI95) &&
		math.Float64bits(a.Min) == math.Float64bits(b.Min) &&
		math.Float64bits(a.Max) == math.Float64bits(b.Max)
}
