package experiment

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/fd"
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

// reuseCase is one TestFullTraceGolden replication that a Runner may run
// on a Core left behind by an earlier replication of the same shape.
type reuseCase struct {
	name      string
	cfg       Config
	transient *TransientConfig
	want      uint64
	// dirty turns the case's configuration into the replication that runs
	// before it; nil means dirtied.
	dirty func(Config) Config
}

// reuseCases are the TestFullTraceGolden cases that are neither grouped
// nor driven by a heartbeat detector, with the digests recorded there.
// Each also runs after a dirtied replication on other topologies of its
// N: wires growing and shrinking, and from lossy wires to lossless ones.
func reuseCases() []reuseCase {
	const ms = time.Millisecond
	base := Config{
		N:            3,
		Throughput:   60,
		QoS:          fd.QoS{TD: 10 * ms},
		Seed:         23,
		Warmup:       300 * ms,
		Measure:      700 * ms,
		Drain:        5 * time.Second,
		Replications: 1,
	}
	steady := base
	steady.Algorithm = FD
	steady.Plan = NewFaultPlan().Suspect(350*ms, 0, 30*ms, 1).Crash(500*ms, 2).Recover(800*ms, 2)
	steady.Load = NewLoadPlan().Burst(400*ms, 100*ms, AllSenders, 3).Mute(600*ms, 1).Unmute(900*ms, 1)

	transient := TransientConfig{Config: base, Crash: 0, Sender: 1}
	transient.Algorithm = GM

	gmRun := base
	gmRun.Algorithm, gmRun.N, gmRun.Throughput = GM, 5, 400
	gmRun.Plan = NewFaultPlan().Suspect(400*ms, 3, 60*ms).Crash(600*ms, 4).Recover(750*ms, 4)

	frequent := func(alg Algorithm) Config {
		c := base
		c.Algorithm, c.N, c.Throughput, c.QoS = alg, 7, 100, fd.QoS{TMR: 100 * ms}
		return c
	}

	wide := base
	wide.Algorithm, wide.N, wide.Throughput, wide.QoS = FD, 32, 20, fd.QoS{}
	wide.Topology = topo.Ring(32)

	cases := []reuseCase{
		{name: "FD n=3 steady", cfg: steady, want: 0x40a5978ffb621203},
		{name: "GM n=3 transient", transient: &transient, want: 0x5f4e7be3033ba6ba},
		{name: "GM n=5 rejoins", cfg: gmRun, want: 0xc0e57802bbb9359b},
		{name: "FD n=7 suspicions", cfg: frequent(FD), want: 0x6e95be2fc433ea79},
		{name: "GM n=7 suspicions", cfg: frequent(GM), want: 0x2e0d511d8197e2b1},
		{name: "FD n=32 ring", cfg: wide, want: 0x23aa55ccb02a4aba},
	}
	// after is tc run after a dirtied replication on t (nil: the full mesh).
	after := func(tc reuseCase, label string, t *topo.Topology) reuseCase {
		tc.name += " after " + label
		tc.dirty = func(a Config) Config {
			b := dirtied(a)
			b.Topology = t
			return b
		}
		return tc
	}
	lossyGeo := topo.Geo(topo.GeoConfig{Sites: 8, PerSite: 4, WAN: topo.Wire{Delay: 5 * ms, Loss: 0.01}})
	out := slices.Clone(cases)
	for _, tc := range cases[:5] {
		n := tc.cfg.N
		if tc.transient != nil {
			n = tc.transient.N
		}
		other, label := topo.Clique(n), "clique"
		if n == 5 {
			other, label = topo.Star(n), "star"
		}
		out = append(out, after(tc, "ring", topo.Ring(n)), after(tc, label, other))
	}
	return append(out,
		after(cases[5], "full mesh", nil),
		after(cases[5], "lossy geo", lossyGeo),
		after(cases[5], "clique", topo.Clique(32)))
}

// dirtied returns a replication of a's algorithm, N and topology that
// differs in everything else a replication can set and leaves
// everything behind: another seed, throughput and detector QoS, a
// pre-crashed process, a crash and a recovery, a wrong suspicion (a GM
// exclusion where the view can lose a member), a burst, and a drain so
// short that the run ends with events queued and, under FD, the recovered
// process's catch-up probe armed.
func dirtied(a Config) Config {
	const ms = time.Millisecond
	b := a
	b.Seed = a.Seed + 1000
	b.Throughput = 2*a.Throughput + 30
	b.QoS = fd.QoS{TD: 5 * ms, TMR: 400 * ms, TM: 15 * ms}
	b.Crashed = []proto.PID{proto.PID(a.N - 1)}
	b.Plan = NewFaultPlan().
		Suspect(30*ms, 1, 80*ms).
		Crash(60*ms, 0).Recover(90*ms, 0).
		Crash(250*ms, 0).Recover(380*ms, 0)
	b.Load = NewLoadPlan().Burst(40*ms, 30*ms, AllSenders, 2)
	b.Warmup, b.Measure, b.Drain = 100*ms, 300*ms, 20*ms
	b.Replications = 1
	return b
}

// TestReusedReplicationMatchesGolden runs each reuse case A right after a
// dirtied replication B of the same algorithm and N, on A's topology or
// on another, on a one-worker Runner, so a
// Runner that reuses B's system for A must leave nothing of B behind: A's
// full trace must hash to the digest TestFullTraceGolden recorded for a
// fresh system. A runs twice after B: first with no observer at all, so
// that a hook of B's left installed would feed B's counting observer —
// whose counts must not move once B is over — and then with the trace
// that A's digest hashes, which installs every hook itself.
func TestReusedReplicationMatchesGolden(t *testing.T) {
	for _, tc := range reuseCases() {
		t.Run(tc.name, func(t *testing.T) {
			var counts, frozen eventCounter
			counter := func(int, int, Config) Observer { return &counts }
			freeze := func(int, int, Config) Observer {
				frozen = counts
				return nil
			}
			got, text := fullTraceDigest(t, func(tr *Trace, inv *Invariants) {
				// The traced run is the batch's third point; its trace keeps
				// the header of the recorded single-point run.
				traced := func(_, rep int, cfg Config) Observer { return tr.Observer(0, rep, cfg) }
				r := &Runner{Workers: 1}
				dirty := tc.dirty
				if dirty == nil {
					dirty = dirtied
				}
				if tc.transient == nil {
					b, bare, a := dirty(tc.cfg), tc.cfg, tc.cfg
					b.Observers = []ObserverFactory{counter, inv.Observer}
					bare.Observers = []ObserverFactory{freeze}
					a.Observers = []ObserverFactory{traced, inv.Observer}
					r.SteadyAll([]Config{b, bare, a})
					return
				}
				bare, a := *tc.transient, *tc.transient
				b := TransientConfig{Config: dirty(a.Config), Crash: 1, Sender: 0}
				b.Observers = []ObserverFactory{counter, inv.Observer}
				bare.Observers = []ObserverFactory{freeze}
				a.Observers = []ObserverFactory{traced, inv.Observer}
				r.TransientAll([]TransientConfig{b, bare, a})
			})
			if counts.broadcasts == 0 || counts.net == 0 || counts.plan < 3 || counts.load == 0 {
				t.Fatalf("dirtied replication observed too little: %+v", counts)
			}
			if counts != frozen {
				t.Errorf("dirtied replication's observer moved while the reused one ran: %+v, then %+v", frozen, counts)
			}
			if got != tc.want {
				t.Errorf("full-trace digest after a dirtied replication = %#016x, want %#016x (%d lines)", got, tc.want, strings.Count(text, "\n"))
			}
		})
	}
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
	run := func(workers int) ([]Result, uint64) {
		var res []Result
		digest, _ := fullTraceDigest(t, func(tr *Trace, inv *Invariants) {
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
		return res, digest
	}
	serial, serialDigest := run(1)
	for i, res := range serial {
		if res.Messages == 0 {
			t.Fatalf("point %d measured nothing: %+v", i, res)
		}
	}
	for _, w := range []int{2, 4} {
		res, digest := run(w)
		for i := range serial {
			if !reflect.DeepEqual(res[i], serial[i]) {
				t.Errorf("workers=%d: point %d differs from the serial run:\nserial:   %+v\nparallel: %+v", w, i, serial[i], res[i])
			}
		}
		if digest != serialDigest {
			t.Errorf("workers=%d: trace digest %#016x, serial %#016x", w, digest, serialDigest)
		}
	}
}
