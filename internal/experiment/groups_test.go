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

// groupsHarness runs one groups-mode core and records every delivery in
// order per process.
type groupsHarness struct {
	core  *Core
	m     *groups.GroupMap
	seq   map[proto.PID][]proto.MsgID // delivery order per process
	count map[proto.MsgID]map[proto.PID]int
}

func newGroupsHarness(t *testing.T, alg Algorithm, m *groups.GroupMap, qos fd.QoS, pre []proto.PID) *groupsHarness {
	t.Helper()
	h := &groupsHarness{
		m:     m,
		seq:   make(map[proto.PID][]proto.MsgID),
		count: make(map[proto.MsgID]map[proto.PID]int),
	}
	h.core = NewCore(CoreConfig{
		Algorithm:  alg,
		N:          m.N(),
		Lambda:     1,
		Groups:     m,
		QoS:        qos,
		Renumber:   alg == FD,
		Seed:       42,
		PreCrashed: pre,
		Deliver: func(p proto.PID, id proto.MsgID, body any, at sim.Time) {
			h.seq[p] = append(h.seq[p], id)
			if h.count[id] == nil {
				h.count[id] = make(map[proto.PID]int)
			}
			h.count[id][p]++
		},
	})
	return h
}

// at schedules fn at t milliseconds of virtual time.
func (h *groupsHarness) at(msec float64, fn func()) {
	h.core.Eng.Schedule(sim.Time(0).Add(sim.Millis(msec)), fn)
}

// checkAgreement asserts the defining properties of genuine atomic
// multicast over the recorded run: (1) a message reaches every live
// member of its destination groups exactly once and nobody else;
// (2) any two processes deliver their common messages in the same
// relative order.
func (h *groupsHarness) checkAgreement(t *testing.T, dests map[proto.MsgID][]int, crashed map[proto.PID]bool) {
	t.Helper()
	for id, gs := range dests {
		for _, g := range gs {
			for _, p := range h.m.Members(g) {
				if crashed[p] {
					continue
				}
				if got := h.count[id][p]; got != 1 {
					t.Errorf("message %s to groups %v: member %d delivered %d times, want 1", id, gs, p, got)
				}
			}
		}
		for p, n := range h.count[id] {
			member := false
			for _, g := range gs {
				if h.m.Contains(g, p) {
					member = true
				}
			}
			if !member && n > 0 {
				t.Errorf("message %s to groups %v delivered at non-member %d", id, gs, p)
			}
		}
	}
	pids := make([]proto.PID, 0, h.m.N())
	for p := 0; p < h.m.N(); p++ {
		pids = append(pids, proto.PID(p))
	}
	for i, p := range pids {
		for _, q := range pids[i+1:] {
			common := func(a, b proto.PID) []proto.MsgID {
				var out []proto.MsgID
				for _, id := range h.seq[a] {
					if h.count[id][b] > 0 {
						out = append(out, id)
					}
				}
				return out
			}
			cp, cq := common(p, q), common(q, p)
			if len(cp) != len(cq) {
				t.Fatalf("processes %d/%d deliver different common sets: %d vs %d", p, q, len(cp), len(cq))
			}
			for k := range cp {
				if cp[k] != cq[k] {
					t.Fatalf("processes %d and %d disagree on order: position %d is %s vs %s\n p%d: %v\n p%d: %v",
						p, q, k, cp[k], cq[k], p, cp, q, cq)
				}
			}
		}
	}
}

// Shard-local traffic on a disjoint map stays inside each shard and
// every shard agrees internally.
func TestGroupsDisjointShardLocalOrder(t *testing.T) {
	m := groups.Disjoint(6, 2)
	h := newGroupsHarness(t, FD, m, fd.QoS{}, nil)
	dests := make(map[proto.MsgID][]int)
	for i := 0; i < 12; i++ {
		p := proto.PID(i % 6)
		home := m.Home(p)
		i := i
		h.at(float64(i*7), func() {
			id := h.core.Bcast[p](i)
			dests[id] = []int{home}
		})
	}
	h.core.Eng.Run()
	h.checkAgreement(t, dests, nil)
	if len(dests) != 12 {
		t.Fatalf("issued %d messages, want 12", len(dests))
	}
}

// Cross-group multicasts on an overlapping chained map are totally
// ordered against shard-local traffic at every process — including the
// bridges, which see both streams.
func TestGroupsChainedCrossGroupOrder(t *testing.T) {
	m := groups.Chained(7, 3)
	for _, alg := range []Algorithm{FD, GM} {
		h := newGroupsHarness(t, alg, m, fd.QoS{}, nil)
		dests := make(map[proto.MsgID][]int)
		record := func(id proto.MsgID, gs ...int) { dests[id] = gs }
		// Interleave shard-local sends from every process with
		// multi-group sends spanning adjacent and distant groups.
		for i := 0; i < 9; i++ {
			p := proto.PID(i % 7)
			home := m.Home(p)
			i := i
			h.at(float64(i*11), func() { record(h.core.Bcast[p](i), home) })
		}
		h.at(5, func() { record(h.core.Mcast(0, []int{0, 1}, "a"), 0, 1) })
		h.at(17, func() { record(h.core.Mcast(6, []int{0, 2}, "b"), 0, 2) })
		h.at(23, func() { record(h.core.Mcast(3, []int{0, 1, 2}, "c"), 0, 1, 2) })
		h.at(31, func() { record(h.core.Mcast(5, []int{1, 2}, "d"), 1, 2) })
		h.core.Eng.Run()
		h.checkAgreement(t, dests, nil)
		if len(dests) != 13 {
			t.Fatalf("%v: issued %d messages, want 13", alg, len(dests))
		}
	}
}

// The dense end of the overlap spectrum: a hub member in every group
// orders every cross-group message pair through its own clocks.
func TestGroupsCliqueOverlapOrder(t *testing.T) {
	m := groups.CliqueOverlap(7, 3)
	h := newGroupsHarness(t, FD, m, fd.QoS{}, nil)
	dests := make(map[proto.MsgID][]int)
	for i := 0; i < 6; i++ {
		p := proto.PID((i % 6) + 1)
		home := m.Home(p)
		i := i
		h.at(float64(i*13), func() { dests[h.core.Bcast[p](i)] = []int{home} })
	}
	h.at(9, func() { dests[h.core.Mcast(0, []int{0, 1, 2}, "x")] = []int{0, 1, 2} })
	h.at(29, func() { dests[h.core.Mcast(2, []int{0, 2}, "y")] = []int{0, 2} })
	h.core.Eng.Run()
	h.checkAgreement(t, dests, nil)
}

// A crash in one shard leaves the other shard's members agreeing and
// delivering everything; the survivors of the crashed shard keep
// agreeing among themselves once the detector excludes the dead member.
func TestGroupsCrashInOneShard(t *testing.T) {
	m := groups.Disjoint(6, 2)
	qos := fd.QoS{TD: 30 * time.Millisecond}
	h := newGroupsHarness(t, FD, m, qos, nil)
	dests := make(map[proto.MsgID][]int)
	crashed := map[proto.PID]bool{5: true}
	h.at(40, func() { h.core.Sys.Crash(5) })
	for i := 0; i < 12; i++ {
		p := proto.PID(i % 5) // senders stay alive
		home := m.Home(p)
		i := i
		h.at(float64(i*15), func() { dests[h.core.Bcast[p](i)] = []int{home} })
	}
	h.core.Eng.Run()
	h.checkAgreement(t, dests, crashed)
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
	dests := make(map[proto.MsgID][]int)
	// Cut shard 1 off before the cross-shard message is sent.
	h.at(20, func() {
		h.core.Sys.Partition([][]proto.PID{{0, 1, 2}, {3, 4, 5}})
	})
	h.at(50, func() { dests[h.core.Mcast(0, []int{0, 1}, "x")] = []int{0, 1} })
	// Shard-local traffic keeps both shards' agreed streams moving
	// through the cut — the wedge is purely in the cross-shard merge.
	for i := 0; i < 8; i++ {
		p := proto.PID(i % 6)
		home := m.Home(p)
		i := i
		h.at(float64(30+i*17), func() { dests[h.core.Bcast[p](i)] = []int{home} })
	}
	h.at(600, func() {
		h.core.Sys.Heal()
		h.core.Healed()
	})
	// Without the retransmit the stall probe re-arms forever; bound the
	// run instead of relying on event exhaustion.
	h.core.Eng.RunUntil(sim.Time(0).Add(5 * time.Second))
	h.checkAgreement(t, dests, nil)
}

// A pre-crashed member never participates: GM instances start with the
// surviving membership and the group still orders its traffic.
func TestGroupsPreCrashedMember(t *testing.T) {
	m := groups.Disjoint(6, 2)
	h := newGroupsHarness(t, GM, m, fd.QoS{}, []proto.PID{4})
	dests := make(map[proto.MsgID][]int)
	for i := 0; i < 8; i++ {
		p := proto.PID(i % 4) // skip group 1's crashed member and 5
		home := m.Home(p)
		i := i
		h.at(float64(i*9), func() { dests[h.core.Bcast[p](i)] = []int{home} })
	}
	h.core.Eng.Run()
	h.checkAgreement(t, dests, map[proto.PID]bool{4: true})
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
			Load:         NewLoadPlan().Mix(600*time.Millisecond, 0.5),
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
	var buf bytes.Buffer
	tr := NewTrace(&buf)
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
		Load:         NewLoadPlan().Mix(700*time.Millisecond, 0.6),
		Observers:    []ObserverFactory{tr.Observer},
	}
	res := RunSteady(cfg)
	if res.Messages == 0 {
		t.Fatal("grouped run measured nothing")
	}
	if err := tr.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	results, err := Replay(&buf)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(results) != 2 {
		t.Fatalf("replayed %d replications, want 2", len(results))
	}
	for _, r := range results {
		if !r.Match {
			t.Fatalf("replication (point %d, rep %d) does not replay: recorded %016x, replayed %016x",
				r.Point, r.Rep, r.Recorded, r.Replayed)
		}
	}
}

// Groups-mode configuration errors are rejected up front.
func TestGroupsConfigValidation(t *testing.T) {
	base := Config{Algorithm: GM, N: 6, Throughput: 10, Groups: groups.Disjoint(6, 2)}
	cases := []func(*Config){
		func(c *Config) { c.Groups = groups.Disjoint(7, 2) },                                        // N mismatch
		func(c *Config) { c.CrossShard = 1.5 },                                                      // fraction out of range
		func(c *Config) { c.Groups = nil; c.CrossShard = 0.5 },                                      // cross-shard without groups
		func(c *Config) { c.Groups = nil; c.Load = NewLoadPlan().Mix(0, 0.5) },                      // shardmix without groups
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
				core.Bcast[p](i)
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
