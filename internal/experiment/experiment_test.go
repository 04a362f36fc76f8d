package experiment

import (
	"testing"
	"time"

	"repro/internal/fd"
	"repro/internal/proto"
)

// fast shrinks an experiment to test-suite scale.
func fast(cfg Config) Config {
	cfg.Warmup = 500 * time.Millisecond
	cfg.Measure = 4 * time.Second
	cfg.Drain = 10 * time.Second
	cfg.Replications = 2
	return cfg
}

func TestNormalSteadyLowLoadLatency(t *testing.T) {
	// n=3, λ=1, light load: the Fig. 1 execution dominates. The minimum
	// possible latency is 7 ms (coordinator decides); senders other than
	// the coordinator see ~9 ms, so the mean sits between.
	res := RunSteady(fast(Config{Algorithm: FD, N: 3, Throughput: 10}))
	if !res.Stable {
		t.Fatalf("unstable at trivial load: %+v", res)
	}
	if res.Latency.Mean < 7 || res.Latency.Mean > 12 {
		t.Fatalf("mean latency = %v ms, want ~7-12 ms", res.Latency.Mean)
	}
	if res.PerMessage.Min < 7 {
		t.Fatalf("min latency = %v ms, below the physical floor of 7 ms", res.PerMessage.Min)
	}
	if res.Messages < 20 {
		t.Fatalf("only %d messages measured", res.Messages)
	}
}

func TestFDAndGMIdenticalWithoutFailures(t *testing.T) {
	// §4.4's central claim: identical message pattern => identical
	// latency. With the same seed the two algorithms must agree exactly,
	// message for message.
	for _, thr := range []float64{10, 200} {
		fdRes := RunSteady(fast(Config{Algorithm: FD, N: 3, Throughput: thr, Seed: 7}))
		gmRes := RunSteady(fast(Config{Algorithm: GM, N: 3, Throughput: thr, Seed: 7}))
		if !fdRes.Stable || !gmRes.Stable {
			t.Fatalf("unstable failure-free runs at T=%v", thr)
		}
		if fdRes.Messages != gmRes.Messages {
			t.Fatalf("T=%v: message counts differ: %d vs %d", thr, fdRes.Messages, gmRes.Messages)
		}
		if fdRes.PerMessage.Mean != gmRes.PerMessage.Mean {
			t.Fatalf("T=%v: FD mean %v != GM mean %v — patterns diverged",
				thr, fdRes.PerMessage.Mean, gmRes.PerMessage.Mean)
		}
		if fdRes.PerMessage.Max != gmRes.PerMessage.Max {
			t.Fatalf("T=%v: FD max %v != GM max %v", thr, fdRes.PerMessage.Max, gmRes.PerMessage.Max)
		}
	}
}

func TestLatencyGrowsWithThroughput(t *testing.T) {
	low := RunSteady(fast(Config{Algorithm: FD, N: 3, Throughput: 20}))
	high := RunSteady(fast(Config{Algorithm: FD, N: 3, Throughput: 500}))
	if !low.Stable || !high.Stable {
		t.Fatal("unstable runs")
	}
	if high.Latency.Mean <= low.Latency.Mean {
		t.Fatalf("latency did not grow with load: %v at 20/s vs %v at 500/s",
			low.Latency.Mean, high.Latency.Mean)
	}
}

func TestSevenSlowerThanThree(t *testing.T) {
	three := RunSteady(fast(Config{Algorithm: FD, N: 3, Throughput: 100}))
	seven := RunSteady(fast(Config{Algorithm: FD, N: 7, Throughput: 100}))
	if seven.Latency.Mean <= three.Latency.Mean {
		t.Fatalf("n=7 (%v ms) not slower than n=3 (%v ms)",
			seven.Latency.Mean, three.Latency.Mean)
	}
}

func TestCrashSteadyReducesLatency(t *testing.T) {
	// Fig. 5: old crashes reduce load, so latency drops, for both
	// algorithms; and GM (smaller view, fewer acks) is at or below FD.
	base := fast(Config{Algorithm: FD, N: 3, Throughput: 300})
	noCrash := RunSteady(base)
	crashCfg := base
	crashCfg.Crashed = []proto.PID{2}
	fdCrash := RunSteady(crashCfg)
	gmCfg := crashCfg
	gmCfg.Algorithm = GM
	gmCrash := RunSteady(gmCfg)
	if !noCrash.Stable || !fdCrash.Stable || !gmCrash.Stable {
		t.Fatal("unstable crash-steady runs")
	}
	if fdCrash.Latency.Mean >= noCrash.Latency.Mean {
		t.Fatalf("FD with crash (%v) not below no-crash (%v)",
			fdCrash.Latency.Mean, noCrash.Latency.Mean)
	}
	if gmCrash.Latency.Mean > fdCrash.Latency.Mean+0.5 {
		t.Fatalf("GM with crash (%v) clearly above FD with crash (%v)",
			gmCrash.Latency.Mean, fdCrash.Latency.Mean)
	}
}

func TestSuspicionSteadyHurtsGMMoreThanFD(t *testing.T) {
	// Fig. 6 regime: TM=0, TMR=100ms at n=3, T=10/s: FD barely affected,
	// GM pays a view change per mistake.
	qos := fd.QoS{TMR: 100 * time.Millisecond}
	fdRes := RunSteady(fast(Config{Algorithm: FD, N: 3, Throughput: 10, QoS: qos}))
	gmRes := RunSteady(fast(Config{Algorithm: GM, N: 3, Throughput: 10, QoS: qos}))
	if !fdRes.Stable {
		t.Fatalf("FD unstable under mild suspicions: %+v", fdRes)
	}
	if gmRes.Messages == 0 {
		t.Fatal("GM delivered nothing")
	}
	if gmRes.PerMessage.Mean < 1.5*fdRes.PerMessage.Mean {
		t.Fatalf("GM (%v ms) not clearly above FD (%v ms) under suspicions",
			gmRes.PerMessage.Mean, fdRes.PerMessage.Mean)
	}
}

func TestGMUnstableAtVeryLowTMRWhileFDSurvives(t *testing.T) {
	// Fig. 6's defining feature: at TMR=10ms and n=3, T=10/s the FD
	// algorithm still works while the GM algorithm does not.
	qos := fd.QoS{TMR: 10 * time.Millisecond}
	cfg := fast(Config{N: 3, Throughput: 10, QoS: qos})
	cfg.Drain = 5 * time.Second
	fdCfg := cfg
	fdCfg.Algorithm = FD
	fdRes := RunSteady(fdCfg)
	if !fdRes.Stable {
		t.Fatalf("FD unstable at TMR=10ms: %d undelivered", fdRes.Undelivered)
	}
	gmCfg := cfg
	gmCfg.Algorithm = GM
	gmRes := RunSteady(gmCfg)
	// GM is either unstable or severely degraded (the paper's simulation
	// did not work at all here; ours degrades hard but keeps delivering
	// through view-change flushes — see EXPERIMENTS.md).
	if gmRes.Stable && gmRes.PerMessage.Mean < 2.5*fdRes.PerMessage.Mean {
		t.Fatalf("GM unexpectedly healthy at TMR=10ms: %+v vs FD %v",
			gmRes.PerMessage, fdRes.PerMessage.Mean)
	}
}

func TestCrashTransientFDBeatsGM(t *testing.T) {
	// Fig. 8: after the coordinator/sequencer crash, the FD algorithm's
	// round-2 recovery is cheaper than the GM view change.
	base := TransientConfig{
		Config: Config{
			N:          3,
			Throughput: 50,
			QoS:        fd.QoS{TD: 10 * time.Millisecond},
			Warmup:     500 * time.Millisecond,
			Drain:      10 * time.Second,
			Measure:    time.Second, // unused by transient but validated
		},
		Crash:  0,
		Sender: 1,
	}
	base.Replications = 5
	fdCfg := base
	fdCfg.Algorithm = FD
	fdRes := RunTransient(fdCfg)
	gmCfg := base
	gmCfg.Algorithm = GM
	gmRes := RunTransient(gmCfg)
	if fdRes.Lost > 0 || gmRes.Lost > 0 {
		t.Fatalf("lost probes: FD %d, GM %d", fdRes.Lost, gmRes.Lost)
	}
	td := 10.0
	if fdRes.Latency.Mean <= td || gmRes.Latency.Mean <= td {
		t.Fatalf("latency below detection time: FD %v, GM %v", fdRes.Latency.Mean, gmRes.Latency.Mean)
	}
	if fdRes.Latency.Mean >= gmRes.Latency.Mean {
		t.Fatalf("FD (%v ms) not faster than GM (%v ms) after the crash",
			fdRes.Latency.Mean, gmRes.Latency.Mean)
	}
	if got, want := fdRes.Overhead.Mean, fdRes.Latency.Mean-td; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("overhead = %v, want latency-TD = %v", got, want)
	}
}

func TestCrashTransientNonCoordinatorCheapForFD(t *testing.T) {
	// §7: for the FD algorithm only the coordinator's crash matters; a
	// bystander crash costs nothing beyond steady state.
	base := TransientConfig{
		Config: Config{
			Algorithm:  FD,
			N:          3,
			Throughput: 50,
			QoS:        fd.QoS{TD: 10 * time.Millisecond},
			Warmup:     500 * time.Millisecond,
			Drain:      10 * time.Second,
		},
	}
	base.Replications = 4
	coord := base
	coord.Crash, coord.Sender = 0, 1
	bystander := base
	bystander.Crash, bystander.Sender = 2, 1
	coordRes := RunTransient(coord)
	byRes := RunTransient(bystander)
	if byRes.Latency.Mean >= coordRes.Latency.Mean {
		t.Fatalf("bystander crash (%v ms) not cheaper than coordinator crash (%v ms)",
			byRes.Latency.Mean, coordRes.Latency.Mean)
	}
	// A bystander crash does not even require detection: latency can be
	// below TD and stays near steady state.
	if byRes.Latency.Mean > 25 {
		t.Fatalf("bystander-crash latency = %v ms, want near steady state", byRes.Latency.Mean)
	}
}

func TestWorstCaseTransientPicksMaximum(t *testing.T) {
	cfg := TransientConfig{
		Config: Config{
			Algorithm:  FD,
			N:          3,
			Throughput: 20,
			QoS:        fd.QoS{TD: 5 * time.Millisecond},
			Warmup:     300 * time.Millisecond,
			Drain:      5 * time.Second,
		},
		Crash: 0,
	}
	cfg.Replications = 2
	var r Runner
	worst := r.WorstCaseTransient(cfg)
	if worst.Latency.N == 0 {
		t.Fatal("no worst case found")
	}
	// The worst case must be at least as bad as any single pair.
	single := cfg
	single.Sender = 1
	res := RunTransient(single)
	if worst.Latency.Mean < res.Latency.Mean {
		t.Fatalf("worst case %v below a sampled pair %v", worst.Latency.Mean, res.Latency.Mean)
	}
}

func TestNonUniformFasterThanUniform(t *testing.T) {
	// §8: dropping uniformity saves the ack round trip.
	uni := RunSteady(fast(Config{Algorithm: GM, N: 3, Throughput: 100}))
	non := RunSteady(fast(Config{Algorithm: GMNonUniform, N: 3, Throughput: 100}))
	if !uni.Stable || !non.Stable {
		t.Fatal("unstable runs")
	}
	if non.Latency.Mean >= uni.Latency.Mean {
		t.Fatalf("non-uniform (%v ms) not faster than uniform (%v ms)",
			non.Latency.Mean, uni.Latency.Mean)
	}
}

func TestValidation(t *testing.T) {
	cases := map[string]Config{
		"unknown algorithm": {N: 3},
		"zero N":            {Algorithm: FD},
		"too many crashes":  {Algorithm: FD, N: 3, Crashed: []proto.PID{1, 2}},
	}
	for name, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			RunSteady(fast(cfg))
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("crash == sender did not panic")
			}
		}()
		RunTransient(TransientConfig{
			Config: fast(Config{Algorithm: FD, N: 3}),
			Crash:  1, Sender: 1,
		})
	}()
}

func TestReproducibility(t *testing.T) {
	cfg := fast(Config{Algorithm: GM, N: 3, Throughput: 100, Seed: 99,
		QoS: fd.QoS{TMR: 500 * time.Millisecond, TM: 5 * time.Millisecond}})
	a := RunSteady(cfg)
	b := RunSteady(cfg)
	if a.Latency.Mean != b.Latency.Mean || a.Messages != b.Messages {
		t.Fatalf("experiment not reproducible: %+v vs %+v", a.Latency, b.Latency)
	}
}

func TestAlgorithmString(t *testing.T) {
	if FD.String() != "FD" || GM.String() != "GM" || GMNonUniform.String() != "GM-nu" {
		t.Fatal("algorithm names wrong")
	}
	if Algorithm(9).String() == "" {
		t.Fatal("unknown algorithm must still format")
	}
}

func TestOverloadDetectedAsDivergence(t *testing.T) {
	// Offered load far above the wire's capacity (1000 msgs/s total, and
	// each broadcast needs >1 wire message): the backlog must trip the
	// divergence detector rather than grind the simulation forever.
	cfg := Config{
		Algorithm:    FD,
		N:            3,
		Throughput:   2500,
		Warmup:       500 * time.Millisecond,
		Measure:      20 * time.Second,
		Drain:        5 * time.Second,
		Replications: 1,
	}
	res := RunSteady(cfg)
	if res.Stable {
		t.Fatalf("overloaded run reported stable: %+v", res.Latency)
	}
	if !res.Diverged {
		t.Fatal("overloaded run not flagged as diverged")
	}
}

func TestWorstCaseTransientSweepsCrashes(t *testing.T) {
	cfg := TransientConfig{
		Config: Config{
			Algorithm:    FD,
			N:            3,
			Throughput:   20,
			QoS:          fd.QoS{TD: 5 * time.Millisecond},
			Warmup:       300 * time.Millisecond,
			Drain:        5 * time.Second,
			Replications: 1,
		},
	}
	// Maximise over p and q: one worst case per crashed process.
	var r Runner
	var full TransientResult
	for p := proto.PID(0); int(p) < cfg.N; p++ {
		cfg.Crash = p
		worst := r.WorstCaseTransient(cfg)
		if worst.Latency.N == 0 {
			t.Fatalf("crash=p%d: worst case found nothing", p)
		}
		if full.Latency.N == 0 || worst.Latency.Mean > full.Latency.Mean {
			full = worst
		}
	}
	// The coordinator crash dominates all bystander crashes.
	if full.Config.Crash != 0 {
		t.Fatalf("worst crash = p%d, want the coordinator p0", full.Config.Crash)
	}
}

func TestLambdaScalesLatency(t *testing.T) {
	fastCPU := RunSteady(fast(Config{Algorithm: FD, N: 3, Throughput: 50, Lambda: 0.5}))
	slowCPU := RunSteady(fast(Config{Algorithm: FD, N: 3, Throughput: 50, Lambda: 3}))
	if !fastCPU.Stable || !slowCPU.Stable {
		t.Fatal("unstable lambda runs")
	}
	if slowCPU.Latency.Mean <= 2*fastCPU.Latency.Mean {
		t.Fatalf("lambda=3 (%v) not clearly slower than lambda=0.5 (%v)",
			slowCPU.Latency.Mean, fastCPU.Latency.Mean)
	}
}
