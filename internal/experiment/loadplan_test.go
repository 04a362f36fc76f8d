package experiment

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/workload"
)

// overloadPlan is the load timeline the golden tests pin: a global burst,
// a per-sender rate change, a mute/unmute pair and a pause/resume pair,
// all inside the planBase measure window.
func overloadPlan() *LoadPlan {
	return NewLoadPlan().
		Burst(900*time.Millisecond, 300*time.Millisecond, AllSenders, 4).
		Rate(1400*time.Millisecond, 1, 250).
		Mute(1600*time.Millisecond, 2).
		Unmute(1900*time.Millisecond, 2).
		Pause(2100 * time.Millisecond).
		Resume(2200 * time.Millisecond)
}

// TestLoadPlanGoldenDigests locks the shaped-workload scenario bit for
// bit, and asserts the digests are identical at 1 and 8 runner workers —
// rate changes mid-gap included (the burst start and end, the rate
// change and the unmute all land mid-gap with near certainty).
func TestLoadPlanGoldenDigests(t *testing.T) {
	for _, alg := range []Algorithm{FD, GM} {
		alg := alg
		name := "overload/" + alg.String()
		t.Run(name, func(t *testing.T) {
			cfg := planBase(alg)
			cfg.Load = overloadPlan()
			matchesGolden(t, cfg, "load/"+name)
		})
	}
}

// TestNoOpLoadPlanIsBitIdentical asserts the tentpole's core contract: a
// plan whose events leave every rate exactly where it already was — a
// global RateChange to the configured throughput — produces the same
// bytes as no plan at all, because rate rescaling consumes no randomness
// and pushing an unchanged rate is a no-op.
func TestNoOpLoadPlanIsBitIdentical(t *testing.T) {
	plain := planBase(FD)
	shaped := planBase(FD)
	shaped.Load = NewLoadPlan().Rate(time.Second, AllSenders, shaped.Throughput)
	a, _ := repRecords(t, plain, 1)
	b, _ := repRecords(t, shaped, 1)
	for i := range a {
		if a[i].Sum() != b[i].Sum() {
			t.Fatalf("rep %d: unshaped digest %#016x != no-op-shaped digest %#016x", i, a[i].Sum(), b[i].Sum())
		}
	}
}

// TestMuteOfCrashedSender: muting a sender that a fault plan already
// crashed must be harmless — the source keeps its (dropped) firing
// stream frozen, and deliveries are bit-identical to the crash alone,
// at any worker count.
func TestMuteOfCrashedSender(t *testing.T) {
	crashOnly := planBase(FD)
	crashOnly.Plan = NewFaultPlan().Crash(time.Second, 4)

	muted := planBase(FD)
	muted.Plan = NewFaultPlan().Crash(time.Second, 4)
	muted.Load = NewLoadPlan().Mute(1200*time.Millisecond, 4).Unmute(1700*time.Millisecond, 4)

	a, _ := repRecords(t, crashOnly, 1)
	b, _ := repRecords(t, muted, 1)
	c, _ := repRecords(t, muted, 8)
	for i := range a {
		if a[i].Sum() != b[i].Sum() {
			t.Fatalf("rep %d: crash-only digest %#016x != crash+mute digest %#016x", i, a[i].Sum(), b[i].Sum())
		}
		if b[i].Sum() != c[i].Sum() {
			t.Fatalf("rep %d: serial digest %#016x != parallel digest %#016x", i, b[i].Sum(), c[i].Sum())
		}
	}
}

// TestBurstOverlappingPartition crosses the two plan kinds: a 4x burst
// opens while the network is partitioned and outlives the heal. The run
// must stay deterministic at any worker count, hold its golden digests,
// and round-trip through trace record → Replay.
func TestBurstOverlappingPartition(t *testing.T) {
	burst := NewLoadPlan().Burst(1400*time.Millisecond, 500*time.Millisecond, AllSenders, 4)
	for _, alg := range []Algorithm{FD, GM} {
		alg := alg
		name := "burst+partition/" + alg.String()
		t.Run(name, func(t *testing.T) {
			cfg := planBase(alg)
			cfg.Plan = partitionHealPlan()
			cfg.Load = burst
			matchesGolden(t, cfg, "load/"+name)
		})
	}
}

// TestLoadTraceReplays records a shaped, partitioned sweep point and
// replays it from the trace alone: the header must carry both plans and
// the body the L lines.
func TestLoadTraceReplays(t *testing.T) {
	cfg := planBase(GM)
	cfg.Plan = partitionHealPlan()
	cfg.Load = overloadPlan()
	text := steadyTrace(t, cfg, 0)
	traceHas(`"load":[{"kind":"burst"`, "\nL ", "mute p2", "pause")(t, text)
	replays(t, text, 2)
}

// broadcastWindowCounter counts A-broadcasts falling inside a window.
type broadcastWindowCounter struct {
	from, to sim.Time
	in, out  int
}

func (b *broadcastWindowCounter) ObserveDelivery(Delivery) {}
func (b *broadcastWindowCounter) ObserveBroadcast(bc Broadcast) {
	if bc.At >= b.from && bc.At < b.to {
		b.in++
	} else {
		b.out++
	}
}

// TestPauseResumeSilencesWorkload: no A-broadcast may fall inside a
// paused window, while traffic flows before and after it.
func TestPauseResumeSilencesWorkload(t *testing.T) {
	cfg := planBase(FD)
	cfg.Replications = 1
	pauseFrom := sim.Time(0).Add(time.Second)
	pauseTo := sim.Time(0).Add(1500 * time.Millisecond)
	cfg.Load = NewLoadPlan().Pause(time.Second).Resume(1500 * time.Millisecond)
	ctr := &broadcastWindowCounter{from: pauseFrom, to: pauseTo}
	cfg.Observers = []ObserverFactory{
		func(int, int, Config) Observer { return ctr },
	}
	var r Runner
	r.Steady(cfg)
	if ctr.in != 0 {
		t.Fatalf("%d broadcasts landed inside the paused window", ctr.in)
	}
	if ctr.out == 0 {
		t.Fatal("no broadcasts outside the paused window; workload never ran")
	}
}

// TestSweepLoadsAxis checks the Loads axis expands innermost, inside
// Plans.
func TestSweepLoadsAxis(t *testing.T) {
	plan := crashRecoverPlan()
	load := overloadPlan()
	pts := Sweep{
		Base:  planBase(FD),
		Plans: []*FaultPlan{nil, plan},
		Loads: []*LoadPlan{nil, load},
	}.Points()
	if len(pts) != 4 {
		t.Fatalf("got %d points, want 4", len(pts))
	}
	want := []struct {
		plan *FaultPlan
		load *LoadPlan
	}{{nil, nil}, {nil, load}, {plan, nil}, {plan, load}}
	for i, w := range want {
		if pts[i].Plan != w.plan || pts[i].Load != w.load {
			t.Fatalf("point %d = (%p, %p), want (%p, %p)", i, pts[i].Plan, pts[i].Load, w.plan, w.load)
		}
	}
}

// TestLoadValidation exercises the load-plan validator through Config.
func TestLoadValidation(t *testing.T) {
	bad := map[string]*LoadPlan{
		"sender out of range": NewLoadPlan().Rate(time.Second, 9, 100),
		"negative sender":     NewLoadPlan().Mute(time.Second, -2),
		"negative time":       NewLoadPlan().Pause(-time.Second),
		"negative rate":       NewLoadPlan().Rate(time.Second, 1, -5),
		"rate above cap":      NewLoadPlan().Rate(time.Second, 1, 2e9),
		"zero burst factor":   NewLoadPlan().Burst(time.Second, time.Second, AllSenders, 0),
		"factor above cap":    NewLoadPlan().Burst(time.Second, time.Second, AllSenders, 2e6),
		"negative burst":      NewLoadPlan().Burst(time.Second, -time.Second, AllSenders, 2),
	}
	for name, plan := range bad {
		cfg := planBase(FD)
		cfg.Load = plan
		if err := cfg.withDefaults().validate(); err == nil {
			t.Errorf("%s: validate accepted %v", name, plan.Events)
		}
	}
	good := planBase(FD)
	good.Load = overloadPlan()
	if err := good.withDefaults().validate(); err != nil {
		t.Errorf("valid load plan rejected: %v", err)
	}
}

// TestLoadEventStrings pins the canonical rendering the trace's L lines
// use.
func TestLoadEventStrings(t *testing.T) {
	cases := map[string]LoadEvent{
		"rate all=300/s":       RateChange{Sender: AllSenders, Rate: 300},
		"rate p2=42.5/s":       RateChange{Sender: 2, Rate: 42.5},
		"burst all x10 for 1s": Burst{Sender: AllSenders, Factor: 10, For: time.Second},
		"burst p1 x0.5 for 2s": Burst{Sender: 1, Factor: 0.5, For: 2 * time.Second},
		"mute p3":              Mute{Sender: 3},
		"unmute all":           Unmute{Sender: AllSenders},
		"pause":                Pause{},
		"resume":               Resume{},
	}
	for want, ev := range cases {
		if got := ev.String(); got != want {
			t.Errorf("%T.String() = %q, want %q", ev, got, want)
		}
	}
}

// TestTinyRateNeverFiresWithoutPanic: a positive rate so small that the
// next gap exceeds the representable duration must behave as "never
// fires" (sim.Millis saturates), not panic on a negative duration or
// stall the run.
func TestTinyRateNeverFiresWithoutPanic(t *testing.T) {
	cfg := planBase(FD)
	cfg.Replications = 1
	cfg.Load = NewLoadPlan().Rate(time.Second, AllSenders, 1e-300)
	ctr := &broadcastWindowCounter{from: sim.Time(0).Add(time.Second), to: sim.Time(1 << 62)}
	cfg.Observers = []ObserverFactory{
		func(int, int, Config) Observer { return ctr },
	}
	var r Runner
	r.Steady(cfg) // must terminate; the post-change workload is silent
	if ctr.in != 0 {
		t.Fatalf("%d broadcasts after the rate dropped below one per epoch", ctr.in)
	}
	if ctr.out == 0 {
		t.Fatal("no broadcasts before the rate change; workload never ran")
	}
}

// TestMuteKeepsLogicalRate: a rate change landing while the sender is
// muted applies on unmute — the mute silences, it does not forget.
func TestMuteKeepsLogicalRate(t *testing.T) {
	// Directly exercise the installer against a real source.
	eng := sim.New()
	fired := 0
	src := workload.NewPoisson(eng, sim.NewRand(23), 100, func() { fired++ })
	l := NewLoads(eng, 100, 1, []*workload.Poisson{src})
	l.Fire(Mute{Sender: 0})
	l.Fire(RateChange{Sender: 0, Rate: 1000})
	eng.RunUntil(sim.Time(0).Add(2 * time.Second))
	if fired != 0 {
		t.Fatalf("muted source fired %d times", fired)
	}
	l.Fire(Unmute{Sender: 0})
	start := fired
	eng.RunUntil(eng.Now().Add(10 * time.Second))
	got := float64(fired - start)
	want := 1000 * 10.0
	if got < want*0.9 || got > want*1.1 {
		t.Fatalf("post-unmute events = %v, want ~%v (the while-muted rate change must stick)", got, want)
	}
}
