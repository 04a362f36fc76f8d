package experiment

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/fd"
	"repro/internal/golden"
	"repro/internal/groups"
	"repro/internal/netmodel"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/topo"
)

// eventCounter counts every hook the replication pipeline calls on it.
type eventCounter struct {
	deliveries, broadcasts, net, plan, load int
}

func (c *eventCounter) ObserveDelivery(Delivery)        { c.deliveries++ }
func (c *eventCounter) ObserveBroadcast(Broadcast)      { c.broadcasts++ }
func (c *eventCounter) ObserveNet(netmodel.TraceEvent)  { c.net++ }
func (c *eventCounter) ObservePlan(sim.Time, PlanEvent) { c.plan++ }
func (c *eventCounter) ObserveLoad(sim.Time, LoadEvent) { c.load++ }

// transition is one kind of replication a reused system may have run
// just before a full-trace case: change turns a copy of the case's
// configuration into it, and dirtied then makes it differ in everything
// else. label is appended to the case's name.
type transition struct {
	label  string
	change func(*Config)
}

// transitions lists, for a case's configuration a, the replications run
// before it: one of a's shape on a's topology and on others of its N
// (wires growing and shrinking, and from lossy wires to lossless ones);
// one of the other algorithm; the grouped or ungrouped counterpart, and
// for a grouped case one on a freshly built map and topology equal to
// a's (distinct pointers, the same shape) and one on another group map;
// the other detector, and for a heartbeat case one of another tuning; and
// another N, whose system cannot be kept.
func transitions(a Config) []transition {
	const ms = time.Millisecond
	after := func(label string, change func(*Config)) transition {
		return transition{" after " + label, change}
	}
	on := func(label string, t *topo.Topology) transition {
		return after(label, func(b *Config) { b.Topology = t })
	}
	n := a.N
	out := []transition{{"", func(*Config) {}}}
	switch n {
	case 32:
		lossyGeo := topo.Geo(topo.GeoConfig{Sites: 8, PerSite: 4, WAN: topo.Wire{Delay: 5 * ms, Loss: 0.01}})
		out = append(out, on("full mesh", nil), on("lossy geo", lossyGeo), on("clique", topo.Clique(n)))
	case 5:
		out = append(out, on("ring", topo.Ring(n)), on("star", topo.Star(n)))
	default:
		out = append(out, on("ring", topo.Ring(n)), on("clique", topo.Clique(n)))
	}
	other := GM
	if a.Algorithm != FD {
		other = FD
	}
	out = append(out, after(other.String(), func(b *Config) { b.Algorithm = other }))
	if a.Groups == nil {
		out = append(out, after("sharded", func(b *Config) { b.Groups, b.CrossShard = groups.Disjoint(n, 2), 0.3 }))
	} else {
		out = append(out,
			after("ungrouped", func(b *Config) { b.Groups, b.CrossShard = nil, 0 }),
			after("an equal map", func(b *Config) { b.Groups, b.Topology = equalShape(b.Groups, b.Topology) }),
			after("chained", func(b *Config) { b.Groups = groups.Chained(n, 2) }))
	}
	if a.Detector == nil {
		out = append(out, after("heartbeat", func(b *Config) { b.Detector = &Heartbeat{Interval: 10 * ms, Timeout: 30 * ms} }))
	} else {
		out = append(out,
			after("modelled detectors", func(b *Config) { b.Detector = nil }),
			after("another heartbeat tuning", func(b *Config) { b.Detector = &Heartbeat{Interval: 5 * ms, Timeout: 25 * ms} }))
	}
	m := 5
	if n == 5 {
		m = 3
	}
	return append(out, after(fmt.Sprintf("n=%d", m), func(b *Config) {
		b.N, b.Topology = m, nil
		if b.Groups != nil {
			b.Groups = groups.Disjoint(m, 2)
		}
	}))
}

// equalShape builds a group map and a topology equal to m and t but
// distinct from them: m rebuilt from its spec, t from its spec or, for
// the default full mesh (nil), a new FullMesh.
func equalShape(m *groups.GroupMap, t *topo.Topology) (*groups.GroupMap, *topo.Topology) {
	fresh, err := groups.FromSpec(m.Spec())
	if err != nil {
		panic(err)
	}
	if t == nil {
		return fresh, topo.FullMesh(m.N())
	}
	ft, err := topo.FromSpec(t.Spec())
	if err != nil {
		panic(err)
	}
	return fresh, ft
}

// dirtied returns a replication that differs from a in everything a
// replication can set besides its algorithm, N, topology, groups and
// detector, and leaves everything behind: another seed, throughput and
// detector QoS, a pre-crashed process, a crash and a recovery (a second
// suspicion where the plan may not recover: a rejoining stack in groups
// mode), a wrong suspicion (a GM exclusion where the view can lose a
// member), a burst, and a drain so short that the run ends with events
// queued and, under FD, the recovered process's catch-up probe armed.
func dirtied(a Config) Config {
	const ms = time.Millisecond
	b := a
	b.Seed = a.Seed + 1000
	b.Throughput = 2*a.Throughput + 30
	b.QoS = fd.QoS{TD: 5 * ms, TMR: 400 * ms, TM: 15 * ms}
	b.Crashed = []proto.PID{proto.PID(a.N - 1)}
	b.Plan = NewFaultPlan().Suspect(30*ms, 1, 80*ms).Crash(60*ms, 0)
	if a.Groups != nil && stackOf(a.Algorithm).rejoins {
		b.Plan.Suspect(250*ms, 1, 50*ms)
	} else {
		b.Plan.Recover(90*ms, 0).Crash(250*ms, 0).Recover(380*ms, 0)
	}
	b.Load = NewLoadPlan().Burst(40*ms, 30*ms, AllSenders, 2)
	b.Warmup, b.Measure, b.Drain = 100*ms, 300*ms, 20*ms
	b.Replications = 1
	return b
}

// TestReusedReplicationMatchesGolden runs each full-trace case A right
// after a dirtied replication B of each transition, on a one-worker
// Runner, so a Runner that reuses any part of B's system for A must leave
// nothing of B behind: A's full trace must hash to the case's digest. A
// runs twice after B: first with no observer at all (a crash-transient
// A crashing p1 and probing from p0 that time), so that a hook of
// B's left installed would feed B's counting observer — whose counts must
// not move once B is over — and then with the trace that A's digest
// hashes, which installs every hook itself. A Core reset from B to A, and
// to A again, must hold one endpoint per process, or per group membership
// in groups mode, each time.
func TestReusedReplicationMatchesGolden(t *testing.T) {
	for _, tc := range fullTraceCases() {
		for _, tr := range transitions(tc.config()) {
			t.Run(tc.name+tr.label, func(t *testing.T) {
				var counts, frozen eventCounter
				counter := func(int, int, Config) Observer { return &counts }
				freeze := func(int, int, Config) Observer {
					frozen = counts
					return nil
				}
				b, bare := tc.config(), tc.config()
				tr.change(&b)
				b = dirtied(b)
				bare.Observers = []ObserverFactory{freeze}
				text := fullTrace(t, func(trace *Trace, inv *Invariants) {
					b.Observers = []ObserverFactory{counter, inv.Observer}
					// The traced run is the batch's third point; its trace
					// keeps the header of the recorded single-point run.
					traced := func(_, rep int, cfg Config) Observer { return trace.Observer(0, rep, cfg) }
					tc.runAfter(t, []Config{b, bare}, traced, inv.Observer)
				})
				if counts.broadcasts == 0 || counts.net == 0 || counts.plan < 3 || counts.load == 0 {
					t.Fatalf("dirtied replication observed too little: %+v", counts)
				}
				if counts != frozen {
					t.Errorf("dirtied replication's observer moved while the reused one ran: %+v, then %+v", frozen, counts)
				}
				if report := golden.Report("trace/"+tc.name, golden.Lines(text)); report != "" {
					t.Errorf("reused%s: while TestFullTraceGolden passes, a fresh run matches this case, and this one "+
						"differs by what Reset left behind; mend Reset, do not re-record\n%s", tr.label, report)
				}
				c := new(Core)
				for i, cfg := range []Config{b, bare, bare} {
					cc := cfg.withDefaults().core(cfg.Seed)
					cc.Deliver = func(proto.PID, proto.MsgID, any, sim.Time) {}
					c.Reset(cc)
					if want := endpointCount(cc); len(c.ends) != want {
						t.Errorf("reset %d of the Core: %d endpoints, want %d", i, len(c.ends), want)
					}
				}
			})
		}
	}
}

// endpointCount is the number of endpoints the system cfg describes runs:
// one per process, or one per group membership in groups mode.
func endpointCount(cfg CoreConfig) int {
	if !cfg.grouped() {
		return cfg.N
	}
	count := 0
	for p := 0; p < cfg.N; p++ {
		count += len(cfg.Groups.GroupsOf(proto.PID(p)))
	}
	return count
}

// TestRunnerReuseAcrossWorkers: a grid that interleaves two shapes hands
// each worker a different succession of reused and rebuilt systems at
// every worker count. Results — the pooled distributions included — and
// the trace bytes must not depend on it.
func TestRunnerReuseAcrossWorkers(t *testing.T) {
	const ms = time.Millisecond
	point := func(alg Algorithm, throughput float64, qos fd.QoS, plan *FaultPlan) Config {
		return Config{
			Algorithm: alg, N: 3, Throughput: throughput, QoS: qos, Plan: plan, Seed: 31,
			Warmup: 100 * ms, Measure: 400 * ms, Drain: 2 * time.Second, Replications: 6,
		}
	}
	churn := NewFaultPlan().Crash(200*ms, 2).Recover(350*ms, 2)
	grid := []Config{
		point(FD, 200, fd.QoS{TD: 10 * ms}, churn),
		point(GM, 200, fd.QoS{TD: 10 * ms}, churn),
		point(FD, 500, fd.QoS{TMR: 150 * ms}, nil),
		point(GM, 500, fd.QoS{TMR: 150 * ms}, nil),
	}
	run := func(workers int) ([]Result, string) {
		var res []Result
		text := fullTrace(t, func(tr *Trace, inv *Invariants) {
			pts := make([]Config, len(grid))
			for i, c := range grid {
				c.Observers = []ObserverFactory{tr.Observer, inv.Observer}
				pts[i] = c
			}
			res = (&Runner{Workers: workers}).SteadyAll(pts)
		})
		for i := range res {
			res[i].Config.Observers = nil
		}
		return res, text
	}
	serial, serialText := run(1)
	for i, res := range serial {
		if res.Messages == 0 {
			t.Fatalf("point %d measured nothing: %+v", i, res)
		}
	}
	for _, w := range []int{2, 4} {
		res, text := run(w)
		for i := range serial {
			if !reflect.DeepEqual(res[i], serial[i]) {
				t.Errorf("workers=%d: point %d differs from the serial run:\nserial:   %+v\nparallel: %+v", w, i, serial[i], res[i])
			}
		}
		if diff := golden.Diff(text, serialText); diff != "" {
			t.Errorf("workers=%d: trace differs from the serial run's: %s", w, diff)
		}
	}
}
