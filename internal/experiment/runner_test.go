package experiment

import (
	"io"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/fd"
	"repro/internal/groups"
	"repro/internal/proto"
	"repro/internal/topo"
)

// fastTransient shrinks a crash-transient experiment to test-suite scale.
func fastTransient(alg Algorithm) TransientConfig {
	return TransientConfig{
		Config: Config{
			Algorithm:    alg,
			N:            3,
			Throughput:   20,
			QoS:          fd.QoS{TD: 5 * time.Millisecond},
			Warmup:       300 * time.Millisecond,
			Drain:        5 * time.Second,
			Replications: 2,
		},
		Crash: 0,
	}
}

// TestWorstCaseTransientCoversFullGrid checks that the worst case really
// evaluates every sender: for each crashed process, the maximum it returns
// must equal the maximum over explicitly enumerated (crash, sender) pairs.
func TestWorstCaseTransientCoversFullGrid(t *testing.T) {
	cfg := fastTransient(FD)
	cfg.Replications = 1
	for p := 0; p < cfg.N; p++ {
		cfg.Crash = proto.PID(p)
		worst := new(Runner).WorstCaseTransient(cfg)
		if worst.Latency.N == 0 {
			t.Fatalf("crash=p%d: worst case found nothing", p)
		}
		best := math.Inf(-1)
		var bestCfg TransientConfig
		for q := 0; q < cfg.N; q++ {
			if p == q {
				continue
			}
			point := cfg
			point.Sender = proto.PID(q)
			res := (&Runner{}).Transient(point)
			if res.Latency.N > 0 && res.Latency.Mean > best {
				best = res.Latency.Mean
				bestCfg = point
			}
		}
		if worst.Latency.Mean != best || worst.Config.Sender != bestCfg.Sender {
			t.Fatalf("crash=p%d: worst case %v at sender=p%d != enumerated max %v at sender=p%d",
				p, worst.Latency.Mean, worst.Config.Sender, best, bestCfg.Sender)
		}
	}
}

// TestWorstCaseTransientAllProbesLost exercises the "no delivered probe
// for any sender" path: with a drain window too short for any delivery,
// the worst case must still name a pair that ran — the first sender in
// grid order, crash ≠ sender — and report every replication's probe as
// lost.
func TestWorstCaseTransientAllProbesLost(t *testing.T) {
	cfg := fastTransient(FD)
	cfg.Drain = time.Millisecond // no probe can be ordered this fast
	res := new(Runner).WorstCaseTransient(cfg)
	if res.Latency.N != 0 {
		t.Fatalf("expected no delivered probe, got %+v", res.Latency)
	}
	if res.Config.Crash != 0 || res.Config.Sender != 1 || res.Config.N != cfg.N {
		t.Fatalf("all-lost worst case names crash=p%d sender=p%d of n=%d, want the first pair crash=p0 sender=p1 of n=%d",
			res.Config.Crash, res.Config.Sender, res.Config.N, cfg.N)
	}
	if res.Lost != cfg.Replications {
		t.Fatalf("all-lost worst case reports %d lost probes, want one per replication (%d)", res.Lost, cfg.Replications)
	}
}

// TestWorstCaseTransientSkipsPreCrashed checks the grid holds live
// processes only: a pre-crashed sender's probe is lost by construction and
// crashing a pre-crashed process is no crash, so neither is a point —
// every replication that runs belongs to a (crash, sender) pair of live
// processes, and each such pair runs.
func TestWorstCaseTransientSkipsPreCrashed(t *testing.T) {
	cfg := fastTransient(FD)
	cfg.N, cfg.Crashed, cfg.Replications = 5, []proto.PID{4}, 1
	var mu sync.Mutex
	pairs := map[[2]proto.PID]bool{}
	cfg.Observers = []ObserverFactory{func(_, _ int, c Config) Observer {
		mu.Lock()
		defer mu.Unlock()
		pairs[[2]proto.PID{c.transient.crash, c.transient.sender}] = true
		return nil
	}}
	for crash := proto.PID(0); crash < 4; crash++ {
		cfg.Crash = crash
		if worst := new(Runner).WorstCaseTransient(cfg); worst.Latency.N == 0 {
			t.Fatalf("crash=p%d: no probe delivered", crash)
		}
		if want := 3 * int(crash+1); len(pairs) != want { // senders: the other three live processes
			t.Errorf("after crash=p%d: ran %d (crash, sender) pairs, want %d: %v", crash, len(pairs), want, pairs)
		}
	}
	for pair := range pairs {
		if pair[0] == 4 || pair[1] == 4 {
			t.Errorf("ran crash=p%d sender=p%d with p4 pre-crashed", pair[0], pair[1])
		}
	}
}

// TestWorstCaseTransientParallelMatchesSerial pins the worst case to the
// same bits at any worker count, including its canonical-order
// tie-breaking, for every crashed process.
func TestWorstCaseTransientParallelMatchesSerial(t *testing.T) {
	for _, alg := range []Algorithm{FD, GM} {
		cfg := fastTransient(alg)
		for p := 0; p < cfg.N; p++ {
			cfg.Crash = proto.PID(p)
			serial := (&Runner{Workers: 1}).WorstCaseTransient(cfg)
			parallel := (&Runner{Workers: 6}).WorstCaseTransient(cfg)
			if serial.Config.Crash != parallel.Config.Crash || serial.Config.Sender != parallel.Config.Sender {
				t.Fatalf("%v: worst pair differs: serial (crash=p%d sender=p%d) vs parallel (crash=p%d sender=p%d)",
					alg, serial.Config.Crash, serial.Config.Sender,
					parallel.Config.Crash, parallel.Config.Sender)
			}
			if !summariesBitIdentical(serial.Latency, parallel.Latency) ||
				!summariesBitIdentical(serial.Overhead, parallel.Overhead) ||
				serial.Lost != parallel.Lost {
				t.Fatalf("%v crash=p%d: results differ:\nserial:   %+v\nparallel: %+v", alg, p, serial, parallel)
			}
		}
	}
}

func TestSweepPoints(t *testing.T) {
	s := Sweep{
		Base:        Config{Algorithm: FD, N: 3, Throughput: 10, Seed: 3},
		Algorithms:  []Algorithm{FD, GM},
		Ns:          []int{3, 7},
		Throughputs: []float64{10, 100, 300},
	}
	pts := s.Points()
	if len(pts) != 12 {
		t.Fatalf("2x2x3 grid expanded to %d points", len(pts))
	}
	// Canonical order: Algorithm outermost, Throughput innermost.
	if pts[0].Algorithm != FD || pts[0].N != 3 || pts[0].Throughput != 10 {
		t.Fatalf("first point %+v", pts[0])
	}
	if pts[11].Algorithm != GM || pts[11].N != 7 || pts[11].Throughput != 300 {
		t.Fatalf("last point %+v", pts[11])
	}
	for _, p := range pts {
		if p.Seed != 3 {
			t.Fatalf("Base field not inherited: %+v", p)
		}
	}
	// Unset axes inherit Base: the degenerate sweep is the single Base point.
	single := Sweep{Base: Config{Algorithm: GM, N: 7, Throughput: 50}}.Points()
	if len(single) != 1 || single[0].Algorithm != GM || single[0].N != 7 || single[0].Throughput != 50 {
		t.Fatalf("degenerate sweep = %+v", single)
	}
	// All eight axes at length 2: point k's axis indices are the bits of
	// k, Algorithm the most significant and GroupMap the least.
	hb, plan, load := &Heartbeat{}, NewFaultPlan(), NewLoadPlan()
	shards := groups.Disjoint(4, 2)
	all := Sweep{
		Algorithms:  []Algorithm{FD, GM},
		Ns:          []int{3, 4},
		Throughputs: []float64{10, 20},
		Lambdas:     []float64{1, 2},
		Detectors:   []*Heartbeat{nil, hb},
		Plans:       []*FaultPlan{nil, plan},
		Loads:       []*LoadPlan{nil, load},
		GroupMaps:   []*groups.GroupMap{nil, shards},
	}.Points()
	if len(all) != 256 {
		t.Fatalf("2^8 grid expanded to %d points", len(all))
	}
	for k, p := range all {
		bits := []bool{
			p.Algorithm == GM, p.N == 4, p.Throughput == 20, p.Lambda == 2,
			p.Detector == hb, p.Plan == plan, p.Load == load, p.Groups == shards,
		}
		got := 0
		for _, b := range bits {
			got <<= 1
			if b {
				got |= 1
			}
		}
		if got != k {
			t.Fatalf("point %d decomposes to axis indices %08b: %+v", k, got, p)
		}
	}
}

// TestSweepPointsLambdaAxis checks the λ axis's place in the canonical
// order and that Base carries what no axis sweeps: a crash-steady grid
// over λ is one Sweep per crashed set.
func TestSweepPointsLambdaAxis(t *testing.T) {
	var pts []Config
	for _, crashed := range [][]proto.PID{nil, {6}, {6, 5}} {
		pts = append(pts, Sweep{
			Base:    Config{Algorithm: FD, N: 7, Throughput: 100, Seed: 9, Crashed: crashed},
			Lambdas: []float64{0.5, 1, 2},
		}.Points()...)
	}
	if len(pts) != 9 {
		t.Fatalf("three 3-point grids expanded to %d points", len(pts))
	}
	want := []struct {
		lambda  float64
		crashes int
	}{
		{0.5, 0}, {1, 0}, {2, 0},
		{0.5, 1}, {1, 1}, {2, 1},
		{0.5, 2}, {1, 2}, {2, 2},
	}
	for i, w := range want {
		if pts[i].Lambda != w.lambda || len(pts[i].Crashed) != w.crashes || pts[i].Seed != 9 {
			t.Fatalf("point %d = lambda %v, crashed %v; want lambda %v, %d crashes",
				i, pts[i].Lambda, pts[i].Crashed, w.lambda, w.crashes)
		}
	}
	// λ sits inside Algorithm and Throughput, outside the rest.
	full := Sweep{
		Base:        Config{Algorithm: FD, N: 3, Throughput: 10},
		Algorithms:  []Algorithm{FD, GM},
		Throughputs: []float64{10, 100},
		Lambdas:     []float64{1, 2},
		Detectors:   []*Heartbeat{nil, {}},
	}.Points()
	if len(full) != 16 {
		t.Fatalf("2x2x2x2 grid expanded to %d points", len(full))
	}
	if full[1].Lambda != 1 || full[1].Detector == nil {
		t.Fatalf("Detector should vary fastest: point 1 = %+v", full[1])
	}
	if full[15].Algorithm != GM || full[15].Throughput != 100 || full[15].Lambda != 2 || full[15].Detector == nil {
		t.Fatalf("last point %+v", full[15])
	}
}

func TestRunnerProgress(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	finals := 0
	r := &Runner{Workers: 3, Progress: func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if total != 4 {
			t.Errorf("total = %d, want 4", total)
		}
		if done == total {
			finals++
		}
	}}
	cfg := Config{
		Algorithm:    FD,
		N:            3,
		Throughput:   20,
		Warmup:       200 * time.Millisecond,
		Measure:      time.Second,
		Drain:        5 * time.Second,
		Replications: 4,
	}
	res := r.Steady(cfg)
	if !res.Stable {
		t.Fatalf("unstable trivial run: %+v", res)
	}
	if calls != 4 || finals != 1 {
		t.Fatalf("progress called %d times with %d completions, want 4 and 1", calls, finals)
	}
}

// TestRunnerValidatesBeforeFanout keeps configuration panics on the
// caller's goroutine, where a command can report them: a bad point
// anywhere in a batch must panic before any worker starts, and with an
// error — the value internal/cli turns into one line — not a runtime
// fault from inside a replication.
func TestRunnerValidatesBeforeFanout(t *testing.T) {
	ok := Config{Algorithm: FD, N: 3, Throughput: 10}
	steady := func(edit func(*Config)) func(*Runner) {
		bad := ok
		edit(&bad)
		return func(r *Runner) { r.SteadyAll([]Config{ok, bad}) }
	}
	transient := func(n int, crash, sender proto.PID, crashed ...proto.PID) TransientConfig {
		return TransientConfig{Config: Config{Algorithm: FD, N: n, Throughput: 10, Crashed: crashed}, Crash: crash, Sender: sender}
	}
	for name, run := range map[string]func(*Runner){
		"no processes":             steady(func(c *Config) { c.N = 0 }),
		"negative replications":    steady(func(c *Config) { c.Replications = -1 }),
		"negative measure window":  steady(func(c *Config) { c.Measure = -time.Second }),
		"negative warmup":          steady(func(c *Config) { c.Warmup = -time.Second }),
		"negative drain":           steady(func(c *Config) { c.Drain = -time.Second }),
		"transient sender missing": func(r *Runner) { r.Transient(transient(3, 0, 9)) },
		"transient crash missing":  func(r *Runner) { r.Transient(transient(3, -1, 1)) },
		"transient sender crashes": func(r *Runner) { r.Transient(transient(3, 1, 1)) },
		"transient of one process": func(r *Runner) { r.Transient(transient(1, 0, 1)) },
		// A pre-crashed sender's probe is lost in every replication, and
		// crashing a pre-crashed process is a no-op: the point would measure
		// steady latency under the crash-transient name.
		"transient sender pre-crashed": func(r *Runner) { r.Transient(transient(5, 0, 4, 4)) },
		"transient crash pre-crashed":  func(r *Runner) { r.Transient(transient(5, 4, 1, 4)) },
		"worst case of one process": func(r *Runner) {
			r.WorstCaseTransient(transient(1, 0, 0))
		},
	} {
		func() {
			defer func() {
				r := recover()
				_, bug := r.(runtime.Error)
				if _, rejected := r.(error); !rejected || bug {
					t.Errorf("%s: panic(%v), want a rejection with an error before the fan-out", name, r)
				}
			}()
			run(&Runner{Workers: 2})
		}()
	}
}

// TestParallelSimFieldsAreInert pins what cmd/bench's sim.psim_* drive
// relies on while the two fields outlive the engine they selected: on
// its configuration (FD on OneWayRing(8)), ParallelSim and SimWorkers
// change neither a replication's delivery digest nor the Result.
func TestParallelSimFieldsAreInert(t *testing.T) {
	run := func(parallelSim bool, simWorkers int) ([]TraceDigest, Result) {
		tr := NewTrace(io.Discard)
		res := (&Runner{Workers: 1}).Steady(Config{
			Algorithm:    FD,
			N:            8,
			Topology:     topo.OneWayRing(8),
			QoS:          fd.QoS{TD: 10 * time.Millisecond},
			Throughput:   100,
			Warmup:       200 * time.Millisecond,
			Measure:      time.Second,
			Drain:        10 * time.Second,
			Replications: 2,
			Seed:         3,
			Observers:    []ObserverFactory{tr.Observer},
			ParallelSim:  parallelSim,
			SimWorkers:   simWorkers,
		})
		return tr.Digests(), res
	}
	wantDigests, want := run(false, 0)
	gotDigests, got := run(true, 2)
	if want.Messages == 0 || len(wantDigests) != 2 {
		t.Fatalf("baseline measured %d messages over %d replications", want.Messages, len(wantDigests))
	}
	for i, w := range wantDigests {
		if gotDigests[i] != w {
			t.Fatalf("replication %d: digest %+v with the fields set, %+v without", i, gotDigests[i], w)
		}
	}
	if got.Messages != want.Messages || got.Undelivered != want.Undelivered || got.Stable != want.Stable ||
		!summariesBitIdentical(got.Latency, want.Latency) || !summariesBitIdentical(got.PerMessage, want.PerMessage) ||
		!quantilesBitIdentical(got.Quantiles, want.Quantiles) {
		t.Fatalf("results differ:\nset:   %+v\nunset: %+v", got, want)
	}
}
