package experiment

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/fd"
	"repro/internal/groups"
	"repro/internal/proto"
	"repro/internal/sim"
)

// groupsHarness runs one groups-mode core under a specification history,
// which the core feeds.
type groupsHarness struct {
	core *Core
}

func newGroupsHarness(t *testing.T, alg Algorithm, m *groups.GroupMap, qos fd.QoS, pre []proto.PID) *groupsHarness {
	t.Helper()
	core := NewCore(CoreConfig{
		Algorithm:  alg,
		N:          m.N(),
		Lambda:     1,
		Groups:     m,
		QoS:        qos,
		Renumber:   alg == FD,
		Seed:       42,
		PreCrashed: pre,
		Deliver:    func(proto.PID, proto.MsgID, any, sim.Time) {},
	})
	core.History = proto.NewHistory(m.N())
	return &groupsHarness{core}
}

// at schedules fn at t milliseconds of virtual time.
func (h *groupsHarness) at(msec float64, fn func()) {
	h.core.Eng.Schedule(sim.Time(0).Add(sim.Millis(msec)), fn)
}

// sent counts the messages issued so far.
func (h *groupsHarness) sent() (n uint64) {
	for _, s := range h.core.SentBy {
		n += s
	}
	return n
}

// holds fails t unless the run meets genuine atomic multicast's
// specification: every message reaches each live member of its
// destination groups exactly once and nobody else, and any two processes
// deliver their common messages in the same relative order.
func (h *groupsHarness) holds(t *testing.T) {
	t.Helper()
	if err := h.core.History.Check(proto.Order|proto.Destinations, func(p proto.PID) bool { return !h.core.Sys.Proc(p).Crashed() }); err != nil {
		t.Fatal(err)
	}
}

// Shard-local traffic on a disjoint map stays inside each shard and
// every shard agrees internally.
func TestGroupsDisjointShardLocalOrder(t *testing.T) {
	m := groups.Disjoint(6, 2)
	h := newGroupsHarness(t, FD, m, fd.QoS{}, nil)
	for i := 0; i < 12; i++ {
		p := i % 6
		i := i
		h.at(float64(i*7), func() { h.core.Broadcast(p, i) })
	}
	h.core.Eng.Run()
	h.holds(t)
	if h.sent() != 12 {
		t.Fatalf("issued %d messages, want 12", h.sent())
	}
}

// Cross-group multicasts on an overlapping chained map are totally
// ordered against shard-local traffic at every process — including the
// bridges, which see both streams.
func TestGroupsChainedCrossGroupOrder(t *testing.T) {
	m := groups.Chained(7, 3)
	for _, alg := range []Algorithm{FD, GM} {
		h := newGroupsHarness(t, alg, m, fd.QoS{}, nil)
		// Interleave shard-local sends from every process with
		// multi-group sends spanning adjacent and distant groups.
		for i := 0; i < 9; i++ {
			p := i % 7
			i := i
			h.at(float64(i*11), func() { h.core.Broadcast(p, i) })
		}
		h.at(5, func() { h.core.Multicast(0, []int{0, 1}, "a") })
		h.at(17, func() { h.core.Multicast(6, []int{0, 2}, "b") })
		h.at(23, func() { h.core.Multicast(3, []int{0, 1, 2}, "c") })
		h.at(31, func() { h.core.Multicast(5, []int{1, 2}, "d") })
		h.core.Eng.Run()
		h.holds(t)
		if h.sent() != 13 {
			t.Fatalf("%v: issued %d messages, want 13", alg, h.sent())
		}
	}
}

// The dense end of the overlap spectrum: a hub member in every group
// orders every cross-group message pair through its own clocks.
func TestGroupsCliqueOverlapOrder(t *testing.T) {
	m := groups.New(7, [][]proto.PID{{0, 1, 2}, {0, 3, 4}, {0, 5, 6}})
	h := newGroupsHarness(t, FD, m, fd.QoS{}, nil)
	for i := 0; i < 6; i++ {
		p := (i % 6) + 1
		i := i
		h.at(float64(i*13), func() { h.core.Broadcast(p, i) })
	}
	h.at(9, func() { h.core.Multicast(0, []int{0, 1, 2}, "x") })
	h.at(29, func() { h.core.Multicast(2, []int{0, 2}, "y") })
	h.core.Eng.Run()
	h.holds(t)
}

// A crash in one shard leaves the other shard's members agreeing and
// delivering everything; the survivors of the crashed shard keep
// agreeing among themselves once the detector excludes the dead member.
func TestGroupsCrashInOneShard(t *testing.T) {
	m := groups.Disjoint(6, 2)
	qos := fd.QoS{TD: 30 * time.Millisecond}
	h := newGroupsHarness(t, FD, m, qos, nil)
	h.at(40, func() { h.core.Sys.Crash(5) })
	for i := 0; i < 12; i++ {
		p := i % 5 // senders stay alive
		i := i
		h.at(float64(i*15), func() { h.core.Broadcast(p, i) })
	}
	h.core.Eng.Run()
	h.holds(t)
}

// Regression: a cross-shard message whose dissemination gram is lost to
// a partition must still deliver after the heal. The sending shard
// proposes and then stalls head-of-line; the receiving shard has no
// record of the message at all, so timestamp requests alone cannot
// revive it — the stall probe must retransmit the gram from the body
// the stalled side holds. Before that retransmit existed, the sending
// shard wedged forever and the message never reached the cut shard.
func TestGroupsCrossShardSurvivesPartitionedGram(t *testing.T) {
	m := groups.Disjoint(6, 2)
	h := newGroupsHarness(t, FD, m, fd.QoS{TD: 10 * time.Millisecond}, nil)
	// Cut shard 1 off before the cross-shard message is sent.
	h.at(20, func() {
		h.core.Sys.Partition([][]proto.PID{{0, 1, 2}, {3, 4, 5}})
	})
	h.at(50, func() { h.core.Multicast(0, []int{0, 1}, "x") })
	// Shard-local traffic keeps both shards' agreed streams moving
	// through the cut — the wedge is purely in the cross-shard merge.
	for i := 0; i < 8; i++ {
		p := i % 6
		i := i
		h.at(float64(30+i*17), func() { h.core.Broadcast(p, i) })
	}
	h.at(600, func() {
		h.core.Sys.Heal()
		h.core.Healed()
	})
	// Without the retransmit the stall probe re-arms forever; bound the
	// run instead of relying on event exhaustion.
	h.core.Eng.RunUntil(sim.Time(0).Add(5 * time.Second))
	h.holds(t)
}

// A pre-crashed member never participates: GM instances start with the
// surviving membership and the group still orders its traffic.
func TestGroupsPreCrashedMember(t *testing.T) {
	m := groups.Disjoint(6, 2)
	h := newGroupsHarness(t, GM, m, fd.QoS{}, []proto.PID{4})
	for i := 0; i < 8; i++ {
		p := i % 4 // skip group 1's crashed member and 5
		i := i
		h.at(float64(i*9), func() { h.core.Broadcast(p, i) })
	}
	h.core.Eng.Run()
	h.holds(t)
}

// A GroupMaps sweep is bit-identical at any worker count, trace digests
// included — the groups layer introduces no scheduling sensitivity.
func TestGroupsSweepDeterministicAcrossWorkers(t *testing.T) {
	sweep := Sweep{
		Base: Config{
			Algorithm:    FD,
			N:            8,
			Throughput:   40,
			Warmup:       200 * time.Millisecond,
			Measure:      time.Second,
			Drain:        4 * time.Second,
			Replications: 2,
			Seed:         17,
			CrossShard:   0.25,
		},
		GroupMaps: []*groups.GroupMap{
			groups.Disjoint(8, 2),
			groups.Disjoint(8, 4),
			groups.Chained(8, 3),
		},
	}
	run := func(workers int) ([]Result, []TraceDigest) {
		var buf bytes.Buffer
		tr := NewTrace(&buf)
		pts := sweep.Points()
		for i := range pts {
			pts[i].Observers = []ObserverFactory{tr.Observer}
		}
		res := (&Runner{Workers: workers}).SteadyAll(pts)
		return res, tr.Digests()
	}
	sRes, sDig := run(1)
	pRes, pDig := run(8)
	if len(sRes) != 3 || len(pRes) != 3 {
		t.Fatalf("point counts: %d vs %d, want 3", len(sRes), len(pRes))
	}
	for i := range sRes {
		if sRes[i].Messages == 0 {
			t.Fatalf("point %d measured nothing", i)
		}
		if sRes[i].Latency.Mean != pRes[i].Latency.Mean || sRes[i].Messages != pRes[i].Messages {
			t.Fatalf("point %d differs across worker counts: %+v vs %+v", i, sRes[i].Latency, pRes[i].Latency)
		}
	}
	if len(sDig) != len(pDig) {
		t.Fatalf("digest counts: %d vs %d", len(sDig), len(pDig))
	}
	for i := range sDig {
		if sDig[i] != pDig[i] {
			t.Fatalf("digest %d differs across worker counts: %+v vs %+v", i, sDig[i], pDig[i])
		}
	}
}

// A grouped run's trace replays from its header alone: the GroupMap and
// cross-shard fraction round-trip through the embedded spec.
func TestGroupsTraceReplays(t *testing.T) {
	cfg := Config{
		Algorithm:    FD,
		N:            6,
		Throughput:   30,
		Warmup:       200 * time.Millisecond,
		Measure:      time.Second,
		Drain:        4 * time.Second,
		Replications: 2,
		Seed:         11,
		Groups:       groups.Chained(6, 2),
		CrossShard:   0.3,
	}
	text := fullTrace(t, func(tr *Trace, _ *Invariants) {
		cfg.Observers = []ObserverFactory{tr.Observer}
		if res := RunSteady(cfg); res.Messages == 0 {
			t.Fatal("grouped run measured nothing")
		}
	})
	replays(t, text, 2)
}

// Groups-mode configuration errors are rejected up front.
func TestGroupsConfigValidation(t *testing.T) {
	base := Config{Algorithm: GM, N: 6, Throughput: 10, Groups: groups.Disjoint(6, 2)}
	cases := []func(*Config){
		func(c *Config) { c.Groups = groups.Disjoint(7, 2) },                                        // N mismatch
		func(c *Config) { c.CrossShard = 1.5 },                                                      // fraction out of range
		func(c *Config) { c.Groups = nil; c.CrossShard = 0.5 },                                      // cross-shard without groups
		func(c *Config) { c.Plan = NewFaultPlan().Crash(time.Second, 5).Recover(2*time.Second, 5) }, // GM recovery
	}
	for i, mod := range cases {
		cfg := base
		mod(&cfg)
		if err := cfg.withDefaults().validate(); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
	good := base
	good.CrossShard = 0.5
	if err := good.withDefaults().validate(); err != nil {
		t.Fatalf("valid groups config rejected: %v", err)
	}
	fdRec := base
	fdRec.Algorithm = FD
	fdRec.Plan = NewFaultPlan().Crash(time.Second, 5).Recover(2*time.Second, 5)
	if err := fdRec.withDefaults().validate(); err != nil {
		t.Fatalf("FD groups recovery rejected: %v", err)
	}
}

// A trivial one-group map is normalized away: the run is bit-identical
// to a nil Groups configuration, delivery for delivery.
func TestGroupsTrivialMapMatchesNil(t *testing.T) {
	type d struct {
		p  proto.PID
		id proto.MsgID
		at sim.Time
	}
	run := func(m *groups.GroupMap) []d {
		var out []d
		core := NewCore(CoreConfig{
			Algorithm: FD,
			N:         4,
			Lambda:    1,
			Groups:    m,
			Renumber:  true,
			Seed:      7,
			Deliver: func(p proto.PID, id proto.MsgID, body any, at sim.Time) {
				out = append(out, d{p, id, at})
			},
		})
		for i := 0; i < 8; i++ {
			p := i % 4
			i := i
			core.Eng.Schedule(sim.Time(0).Add(sim.Millis(float64(i*7))), func() {
				core.Broadcast(p, i)
			})
		}
		core.Eng.Run()
		return out
	}
	a, b := run(nil), run(groups.Disjoint(4, 1))
	if len(a) != len(b) {
		t.Fatalf("delivery counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}
