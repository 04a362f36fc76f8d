package experiment

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/fd"
	"repro/internal/golden"
	"repro/internal/proto"
)

// planBase is the configuration the FaultPlan determinism tests run on:
// small enough for CI, long enough for the faults to open, resolve and
// drain their late deliveries.
func planBase(alg Algorithm) Config {
	return Config{
		Algorithm:    alg,
		N:            5,
		Throughput:   100,
		QoS:          fd.QoS{TD: 10 * time.Millisecond},
		Seed:         1,
		Warmup:       500 * time.Millisecond,
		Measure:      2 * time.Second,
		Drain:        8 * time.Second,
		Replications: 2,
	}
}

func partitionHealPlan() *FaultPlan {
	return NewFaultPlan().
		Partition(1200*time.Millisecond, []proto.PID{0, 1, 2}, []proto.PID{3, 4}).
		Heal(1800 * time.Millisecond)
}

func crashRecoverPlan() *FaultPlan {
	return NewFaultPlan().
		Crash(1000*time.Millisecond, 4).
		Recover(1600*time.Millisecond, 4)
}

// longOutagePlan keeps p4 down through two full seconds of steady
// traffic — a couple of hundred decisions, several times the FD
// consensus instance window — so peers garbage-collect every instance
// the crashed process misses and its recovery can only complete through
// decision-log catch-up.
func longOutagePlan() *FaultPlan {
	return NewFaultPlan().
		Crash(600*time.Millisecond, 4).
		Recover(2400*time.Millisecond, 4)
}

// repRecords runs cfg through a Runner with the given worker count and
// returns its trace and, in canonical order, each replication's D lines
// as records, whose digest it checks against the replication's E record.
// The trace must hold every replication cfg asks for.
func repRecords(t *testing.T, cfg Config, workers int) ([]*golden.Records, string) {
	t.Helper()
	text := steadyTrace(t, cfg, workers)
	var reps []*golden.Records
	for i, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(line, "C "):
			reps = append(reps, &golden.Records{})
		case len(reps) == 0 && (strings.HasPrefix(line, "D ") || strings.HasPrefix(line, "E ")):
			t.Fatalf("trace line %d, %q, comes before any replication's C line", i+1, line)
		case strings.HasPrefix(line, "D "):
			reps[len(reps)-1].Add(line)
		case strings.HasPrefix(line, "E "):
			if want := fmt.Sprintf("E %016x", reps[len(reps)-1].Sum()); line != want {
				t.Errorf("rep %d: trace closes with %q, its D lines digest to %q", len(reps)-1, line, want)
			}
		}
	}
	if len(reps) != cfg.Replications {
		t.Fatalf("the trace holds %d replications, want %d", len(reps), cfg.Replications)
	}
	return reps, text
}

// matchesGolden runs cfg on one and on eight workers, checks that both
// write the same trace, and checks each replication's D lines against the
// golden case name and its replication number ("plan/partition-heal/FD
// rep 1").
func matchesGolden(t *testing.T, cfg Config, name string) {
	t.Helper()
	serial, text := repRecords(t, cfg, 1)
	if _, parallel := repRecords(t, cfg, 8); parallel != text {
		t.Errorf("the trace at 8 workers differs from the serial one: %s", golden.Diff(parallel, text))
	}
	for i, r := range serial {
		golden.Check(t, fmt.Sprintf("%s rep %d", name, i), r)
	}
}

// TestFaultPlanGoldenDigests locks the partition-heal and crash-recover
// scenarios bit for bit, and asserts the digests are identical at 1 and
// 8 runner workers.
func TestFaultPlanGoldenDigests(t *testing.T) {
	cases := []struct {
		name string
		alg  Algorithm
		plan *FaultPlan
	}{
		{"partition-heal/FD", FD, partitionHealPlan()},
		{"partition-heal/GM", GM, partitionHealPlan()},
		{"crash-recover/FD", FD, crashRecoverPlan()},
		{"crash-recover/GM", GM, crashRecoverPlan()},
		{"long-outage/FD", FD, longOutagePlan()},
		{"long-outage/GM", GM, longOutagePlan()},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := planBase(tc.alg)
			cfg.Plan = tc.plan
			matchesGolden(t, cfg, "plan/"+tc.name)
		})
	}
}

// TestCrashedIsPreCrashConstructor pins the crash-steady initial
// condition — Config.Crashed, which NewCore hands to
// proto.System.PreCrash — to its golden digest.
func TestCrashedIsPreCrashConstructor(t *testing.T) {
	cfg := planBase(GM)
	cfg.Crashed = []proto.PID{4, 3}
	matchesGolden(t, cfg, "plan/precrash-vs-legacy")
}

// TestPartitionPlanRecoversThroughGM asserts the behavioural contrast the
// partition figure plots: under the same partition-and-heal plan the GM
// algorithm delivers every measured message (the minority rejoins with
// state transfer and re-announces what the partition swallowed), while
// the FD algorithm loses the minority's partition-era messages.
func TestPartitionPlanRecoversThroughGM(t *testing.T) {
	var r Runner
	res := r.Sweep(Sweep{
		Base:       planBase(FD),
		Algorithms: []Algorithm{FD, GM},
		Plans:      []*FaultPlan{partitionHealPlan()},
	})
	fdRes, gmRes := res[0], res[1]
	if fdRes.Undelivered == 0 {
		t.Fatal("FD lost nothing through the partition; expected minority messages to be lost")
	}
	if gmRes.Undelivered != 0 {
		t.Fatalf("GM left %d messages undelivered; rejoin + re-announcement should recover all", gmRes.Undelivered)
	}
	if gmRes.Quantiles.P99 < 100 {
		t.Fatalf("GM P99 = %.1fms; the recovered messages should form a late tail", gmRes.Quantiles.P99)
	}
}

// TestLongOutagePlanCatchUpTracedAndReplays runs the long-outage plan
// under FD with a full trace: the catch-up exchange must be visible as
// request/reply wire records, and the trace must replay bit for bit —
// catch-up is part of the deterministic event stream like everything
// else.
func TestLongOutagePlanCatchUpTracedAndReplays(t *testing.T) {
	cfg := planBase(FD)
	cfg.Plan = longOutagePlan()
	text := steadyTrace(t, cfg, 0)
	traceHas("CatchUpReq[", "CatchUpReply[")(t, text)
	replays(t, text, 2)
}

// TestPlanTraceReplays records a planned sweep point and replays it from
// the trace alone: the header must carry the plan.
func TestPlanTraceReplays(t *testing.T) {
	cfg := planBase(GM)
	cfg.Plan = partitionHealPlan()
	text := steadyTrace(t, cfg, 0)
	traceHas(`"plan":[{"kind":"partition"`, "\nF ")(t, text)
	replays(t, text, 2)
}

// TestSweepPlansAxis checks the Plans axis expands innermost.
func TestSweepPlansAxis(t *testing.T) {
	plan := crashRecoverPlan()
	pts := Sweep{
		Base:       planBase(FD),
		Algorithms: []Algorithm{FD, GM},
		Plans:      []*FaultPlan{nil, plan},
	}.Points()
	if len(pts) != 4 {
		t.Fatalf("got %d points, want 4", len(pts))
	}
	want := []struct {
		alg  Algorithm
		plan *FaultPlan
	}{{FD, nil}, {FD, plan}, {GM, nil}, {GM, plan}}
	for i, w := range want {
		if pts[i].Algorithm != w.alg || pts[i].Plan != w.plan {
			t.Fatalf("point %d = (%v, %p), want (%v, %p)", i, pts[i].Algorithm, pts[i].Plan, w.alg, w.plan)
		}
	}
}

// TestPlanValidation exercises the plan validator through Config.
func TestPlanValidation(t *testing.T) {
	bad := map[string]*FaultPlan{
		"pid out of range":   NewFaultPlan().Crash(time.Second, 9),
		"negative time":      NewFaultPlan().Crash(-time.Second, 1),
		"loss above one":     NewFaultPlan().Link(0, 0, 1, 1.5, 0),
		"self link":          NewFaultPlan().Link(0, 1, 1, 0.5, 0),
		"duplicate in group": NewFaultPlan().Partition(0, []proto.PID{0, 1}, []proto.PID{1}),
		"negative duration":  NewFaultPlan().Suspect(0, 1, -time.Second),
		"bad monitor":        NewFaultPlan().Suspect(0, 1, 0, proto.PID(7)),
		"empty monitor list": NewFaultPlan(SuspicionBurst{P: 1, By: []proto.PID{}}),
		"self-suspicion":     NewFaultPlan().Suspect(0, 1, time.Second, 1),
	}
	for name, plan := range bad {
		cfg := planBase(FD)
		cfg.Plan = plan
		if err := cfg.withDefaults().validate(); err == nil {
			t.Errorf("%s: validate accepted %v", name, plan.Events)
		}
	}
	good := planBase(FD)
	good.Plan = partitionHealPlan()
	if err := good.withDefaults().validate(); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
}

// TestTransientCrashObservedAsPlanEvent checks the crash-transient
// scenario fires its scripted crash through the shared fault machinery:
// a trace of a transient replication carries the F record.
func TestTransientCrashObservedAsPlanEvent(t *testing.T) {
	cfg := TransientConfig{
		Config: Config{
			Algorithm:    FD,
			N:            3,
			Throughput:   50,
			QoS:          fd.QoS{TD: 10 * time.Millisecond},
			Seed:         1,
			Warmup:       300 * time.Millisecond,
			Drain:        5 * time.Second,
			Replications: 1,
		},
		Crash:  0,
		Sender: 1,
	}
	text := fullTrace(t, func(tr *Trace, _ *Invariants) {
		cfg.Observers = []ObserverFactory{tr.Observer}
		(&Runner{}).Transient(cfg)
	})
	traceHas("\nF 300000000 crash p0\n")(t, text)
	replays(t, text, 1)
}
