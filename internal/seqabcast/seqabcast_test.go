package seqabcast

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/fd"
	"repro/internal/gm"
	"repro/internal/netmodel"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/topo"
)

// cluster is an end-to-end harness for the GM algorithm over the full
// simulated stack.
type cluster struct {
	eng        *sim.Engine
	sys        *proto.System
	procs      []*Process
	deliveries [][]delivery
	hist       *proto.History
	fence      assignmentFence
	bodies     map[proto.MsgID]any // what each message was broadcast with
}

// assignmentFence watches every MsgSeqNum a sequencer multicasts and keeps
// the first assignment that breaks the sequencer's contract: an id numbered
// twice in one view, or numbered after a process had delivered it. The
// sequencer keeps no map from id to number to refuse the first itself;
// the fence shows that nothing it sequences needs one.
type assignmentFence struct {
	numbered map[uint64]map[proto.MsgID]uint64 // by view
	err      error
}

// observe is the network trace hook of c's fence.
func (c *cluster) observe(ev netmodel.TraceEvent) {
	m, ok := ev.Payload.(*MsgSeqNum)
	if !ok || ev.Kind != netmodel.TraceSend || c.fence.err != nil {
		return
	}
	view := c.fence.numbered[m.View]
	if view == nil {
		view = make(map[proto.MsgID]uint64)
		c.fence.numbered[m.View] = view
	}
	for _, pair := range m.Pairs {
		if seq, dup := view[pair.ID]; dup {
			c.fence.err = fmt.Errorf("p%d at %v: view %d numbers %v %d, numbered %d already", ev.From, ev.At, m.View, pair.ID, pair.Seq, seq)
			return
		}
		view[pair.ID] = pair.Seq
		for q, p := range c.procs {
			if p.delivered.Seen(pair.ID) {
				c.fence.err = fmt.Errorf("p%d at %v: view %d numbers %v %d, delivered at p%d already", ev.From, ev.At, m.View, pair.ID, pair.Seq, q)
				return
			}
		}
	}
}

type delivery struct {
	id   proto.MsgID
	body any
	at   sim.Time
}

type clusterOpts struct {
	n        int
	qos      fd.QoS
	uniform  *bool // nil means uniform (the paper's main variant)
	seed     uint64
	preCrash []proto.PID
	members  []proto.PID    // initial view; nil means all
	topology *topo.Topology // nil means the full mesh
	// logRetain, if positive, replaces the state-transfer log's retention.
	logRetain int
	// afterStep, if non-nil, runs after every handler callback of every
	// process: an invariant check on the state the step left behind.
	afterStep func(p *Process)
}

// checkedHandler runs a state check after each callback of the process.
type checkedHandler struct {
	*Process
	check func(p *Process)
}

func (h checkedHandler) Init()                 { h.Process.Init(); h.check(h.Process) }
func (h checkedHandler) OnSuspect(q proto.PID) { h.Process.OnSuspect(q); h.check(h.Process) }
func (h checkedHandler) OnTrust(q proto.PID)   { h.Process.OnTrust(q); h.check(h.Process) }
func (h checkedHandler) OnMessage(from proto.PID, m any) {
	h.Process.OnMessage(from, m)
	h.check(h.Process)
}

func newCluster(o clusterOpts) *cluster {
	if o.seed == 0 {
		o.seed = 1
	}
	uniform := true
	if o.uniform != nil {
		uniform = *o.uniform
	}
	eng := sim.New()
	netCfg := netmodel.DefaultConfig(o.n)
	if o.topology != nil {
		netCfg.Topology = o.topology
	}
	sys := proto.NewSystem(eng, netCfg, o.qos, sim.NewRand(o.seed))
	c := &cluster{
		eng:        eng,
		sys:        sys,
		procs:      make([]*Process, o.n),
		deliveries: make([][]delivery, o.n),
		hist:       proto.NewHistory(o.n),
		fence:      assignmentFence{numbered: make(map[uint64]map[proto.MsgID]uint64)},
		bodies:     make(map[proto.MsgID]any),
	}
	sys.Net.SetTrace(c.observe)
	for i := 0; i < o.n; i++ {
		i := i
		c.procs[i] = New(sys.Proc(proto.PID(i)), Config{
			Uniform:        uniform,
			InitialMembers: o.members,
			Deliver: func(id proto.MsgID, body any) {
				c.deliveries[i] = append(c.deliveries[i], delivery{id: id, body: body, at: eng.Now()})
				c.hist.Deliver(proto.PID(i), id)
			},
		})
		if o.logRetain > 0 {
			c.procs[i].log.Retain = o.logRetain
		}
		var h proto.Handler = c.procs[i]
		if o.afterStep != nil {
			h = checkedHandler{c.procs[i], o.afterStep}
		}
		sys.SetHandler(proto.PID(i), h)
	}
	for _, p := range o.preCrash {
		sys.PreCrash(p)
	}
	sys.Start()
	return c
}

func (c *cluster) broadcastAt(p proto.PID, at sim.Time) {
	c.eng.Schedule(at, func() {
		body := fmt.Sprintf("m-%d-%v", p, at)
		id := c.procs[p].ABroadcast(body)
		c.hist.Broadcast(id)
		c.bodies[id] = body
	})
}

func (c *cluster) run(horizon time.Duration) {
	c.eng.RunUntil(sim.Time(0).Add(horizon))
}

// holds fails t unless the run meets the clauses of the specification over
// the processes that are up now, and the assignment fence saw no breach.
func (c *cluster) holds(t *testing.T, clauses proto.Clause) {
	t.Helper()
	if err := c.hist.Check(clauses, func(p proto.PID) bool { return !c.sys.Proc(p).Crashed() }); err != nil {
		t.Fatal(err)
	}
	if c.fence.err != nil {
		t.Fatal(c.fence.err)
	}
}

func at(msf float64) sim.Time { return sim.Time(0).Add(sim.Millis(msf)) }

func boolPtr(b bool) *bool { return &b }

func TestSingleBroadcastLatencyMatchesFDAlgorithm(t *testing.T) {
	// §4.4: failure-free message pattern identical to the FD algorithm,
	// so the hand-computed timings from the ctabcast tests must hold
	// exactly: sequencer at 7 ms, the others at 11 ms.
	c := newCluster(clusterOpts{n: 3})
	c.broadcastAt(0, 0)
	c.run(time.Second)
	c.holds(t, proto.Destinations)
	if got := c.deliveries[0][0].at; got != at(7) {
		t.Fatalf("sequencer delivered at %v, want 7ms", got)
	}
	for p := 1; p < 3; p++ {
		if got := c.deliveries[p][0].at; got != at(11) {
			t.Fatalf("p%d delivered at %v, want 11ms", p, got)
		}
	}
}

func TestTotalOrderUnderConcurrentLoad(t *testing.T) {
	c := newCluster(clusterOpts{n: 3})
	for i := 0; i < 20; i++ {
		for p := 0; p < 3; p++ {
			c.broadcastAt(proto.PID(p), at(float64(2*i)))
		}
	}
	c.run(5 * time.Second)
	c.holds(t, proto.Prefix|proto.Destinations)
}

func TestSevenProcesses(t *testing.T) {
	c := newCluster(clusterOpts{n: 7})
	for i := 0; i < 14; i++ {
		c.broadcastAt(proto.PID(i%7), at(float64(5*i)))
	}
	c.run(time.Second)
	c.holds(t, proto.Prefix|proto.Destinations)
}

func TestSequencerCrashTriggersViewChange(t *testing.T) {
	td := 10 * time.Millisecond
	c := newCluster(clusterOpts{n: 3, qos: fd.QoS{TD: td}})
	crash := at(50)
	c.sys.CrashAt(0, crash)
	c.broadcastAt(1, crash) // broadcast at the crash instant
	c.run(2 * time.Second)
	c.holds(t, proto.Prefix|proto.Destinations)
	for p := 1; p < 3; p++ {
		if got := c.deliveries[p][0].at; got.Sub(crash) <= td {
			t.Fatalf("delivery at %v before detection completed", got)
		}
	}
	// The view excludes the sequencer; p1 takes over.
	v := c.procs[1].View()
	if v.Contains(0) || v.Primary() != 1 {
		t.Fatalf("view after crash = %v, want {1 2} led by 1", v)
	}
}

func TestNonSequencerCrashAlsoCostsAViewChange(t *testing.T) {
	// §4.4: "the GM algorithm reacts to the crash of every process" —
	// unlike the FD algorithm, crashing a non-coordinator still
	// reconfigures.
	td := 10 * time.Millisecond
	c := newCluster(clusterOpts{n: 3, qos: fd.QoS{TD: td}})
	c.sys.CrashAt(2, at(50))
	c.broadcastAt(1, at(100))
	c.run(2 * time.Second)
	v := c.procs[0].View()
	if v.ID != 2 || v.Contains(2) {
		t.Fatalf("view = %v, want second view without p2", v)
	}
	c.holds(t, proto.Prefix|proto.Destinations)
}

func TestInFlightMessagesSurviveViewChange(t *testing.T) {
	// Messages broadcast just before and during the view change are
	// delivered exactly once, in the same order everywhere.
	td := 10 * time.Millisecond
	c := newCluster(clusterOpts{n: 3, qos: fd.QoS{TD: td}})
	for i := 0; i < 10; i++ {
		c.broadcastAt(proto.PID(1+i%2), at(float64(45+i)))
	}
	c.sys.CrashAt(0, at(50))
	c.run(2 * time.Second)
	c.holds(t, proto.Prefix|proto.Agreement|proto.Destinations)
}

func TestWrongSuspicionCausesExclusionAndRejoin(t *testing.T) {
	// p1 wrongly suspects the sequencer for a long TM: the view change
	// excludes p0, which later rejoins via state transfer. Everything is
	// eventually delivered everywhere in one total order.
	c := newCluster(clusterOpts{n: 3})
	c.eng.Schedule(at(20), func() {
		c.sys.FDs.InjectMistake(1, 0, 100*time.Millisecond)
	})
	for i := 0; i < 20; i++ {
		c.broadcastAt(proto.PID(i%3), at(float64(10+5*i)))
	}
	c.run(3 * time.Second)
	c.holds(t, proto.Prefix|proto.Destinations)
	// p0 must have been excluded at some point and be back now.
	if c.procs[0].IsExcluded() {
		t.Fatal("p0 still excluded after the mistake ended")
	}
	if v := c.procs[0].View(); v.ID < 3 {
		t.Fatalf("view %v: expected at least exclusion + rejoin changes", v)
	}
}

func TestExcludedProcessQueuesBroadcasts(t *testing.T) {
	c := newCluster(clusterOpts{n: 3})
	// Exclude p2 via a long mistake at both peers.
	c.eng.Schedule(at(10), func() {
		c.sys.FDs.InjectMistake(0, 2, 80*time.Millisecond)
		c.sys.FDs.InjectMistake(1, 2, 80*time.Millisecond)
	})
	// p2 broadcasts while excluded.
	c.broadcastAt(2, at(40))
	c.run(3 * time.Second)
	c.holds(t, proto.Prefix|proto.Destinations)
	// The message could only be delivered after p2 rejoined, i.e. well
	// after the mistake ended at ~90ms.
	first := c.deliveries[0][0].at
	if first < at(90) {
		t.Fatalf("queued broadcast delivered at %v, before the rejoin", first)
	}
}

// TestExcludedProcessBuffersCopies checks that sequencing traffic an
// excluded process buffers survives the network's release of the box it
// arrived in: the buffer retains the box, so its sender cannot draw it for
// a later message until the buffer lets go of it — at replay, or at Reset.
func TestExcludedProcessBuffersCopies(t *testing.T) {
	c := newCluster(clusterOpts{n: 3, members: []proto.PID{0, 1}})
	p, s0, s1 := c.procs[2], c.procs[0], c.procs[1]
	if !p.IsExcluded() {
		t.Fatal("p2 is not excluded from the initial view {0 1}")
	}
	id := proto.MsgID{Origin: 0, Seq: 1}
	seqnum := s0.seqNumPool.Get()
	seqnum.View, seqnum.Pairs = 1, append(seqnum.Pairs, SeqPair{Seq: 1, ID: id})
	ack := s1.ackPool.Get()
	ack.View, ack.UpTo = 1, 1
	deliver := s0.deliverPool.Get()
	deliver.View, deliver.UpTo, deliver.StableUpTo = 1, 1, 1
	// Hand each over the way the network does: one reference for the
	// copy, released once the handler returns.
	for _, m := range []struct {
		from proto.PID
		box  netmodel.Pooled
	}{{0, seqnum}, {1, ack}, {0, deliver}} {
		m.box.Retain(1)
		p.OnMessage(m.from, m.box)
		m.box.Release()
	}

	if len(p.buffered) != 3 {
		t.Fatalf("buffered %d payloads, want 3", len(p.buffered))
	}
	if s0.seqNumPool.Get() == seqnum || s1.ackPool.Get() == ack || s0.deliverPool.Get() == deliver {
		t.Fatal("a sender drew a box the excluded process still buffers")
	}
	if m := p.buffered[0].payload.(*MsgSeqNum); m != seqnum || m.View != 1 || m.Pairs[0] != (SeqPair{Seq: 1, ID: id}) {
		t.Errorf("buffered seqnum: view %d, pairs %v, same box %v; want the box of view 1 assigning 1 to %v", m.View, m.Pairs, m == seqnum, id)
	}
	if m := p.buffered[1].payload.(*MsgAck); m != ack || m.UpTo != 1 {
		t.Errorf("buffered ack: up to %d, same box %v; want the box up to 1", m.UpTo, m == ack)
	}
	if m := p.buffered[2].payload.(*MsgDeliver); m != deliver || m.UpTo != 1 {
		t.Errorf("buffered deliver: up to %d, same box %v; want the box up to 1", m.UpTo, m == deliver)
	}

	p.Reset(p.cfg)
	if s0.seqNumPool.Get() != seqnum || s1.ackPool.Get() != ack || s0.deliverPool.Get() != deliver {
		t.Fatal("Reset did not hand the buffered boxes back to their senders")
	}
}

func TestSuspicionOfNonSequencerWithTMZero(t *testing.T) {
	// TM = 0: a wrong suspicion still costs a full reconfiguration — the
	// suspected process is excluded like a crashed one would be (§4.4)
	// and rejoins right away, since the mistake is already over.
	c := newCluster(clusterOpts{n: 3})
	c.eng.Schedule(at(20), func() { c.sys.FDs.InjectMistake(0, 1, 0) })
	c.broadcastAt(2, at(21))
	c.run(time.Second)
	c.holds(t, proto.Prefix|proto.Destinations)
	v := c.procs[0].View()
	if len(v.Members) != 3 {
		t.Fatalf("members = %v, want all 3 back after the rejoin", v.Members)
	}
	if v.ID < 3 {
		t.Fatalf("view ID = %d, want >= 3 (exclusion + rejoin)", v.ID)
	}
	if c.procs[1].IsExcluded() {
		t.Fatal("p1 still excluded")
	}
}

func TestCrashSteadyInitialView(t *testing.T) {
	// Crash-steady scenario: p2 crashed long ago; the initial view is
	// the survivors and nothing ever reconfigures.
	c := newCluster(clusterOpts{
		n:        3,
		preCrash: []proto.PID{2},
		members:  []proto.PID{0, 1},
	})
	for i := 0; i < 10; i++ {
		c.broadcastAt(proto.PID(i%2), at(float64(5*i)))
	}
	c.run(time.Second)
	c.holds(t, proto.Prefix|proto.Destinations)
	if v := c.procs[0].View(); v.ID != 1 {
		t.Fatalf("view changed in crash-steady scenario: %v", v)
	}
}

func TestNonUniformVariantTwoMulticasts(t *testing.T) {
	// §8: the non-uniform variant costs exactly two multicasts and no
	// unicasts per broadcast.
	c := newCluster(clusterOpts{n: 3, uniform: boolPtr(false)})
	c.broadcastAt(0, 0)
	c.run(time.Second)
	c.holds(t, proto.Destinations)
	counters := c.sys.Net.Counters()
	if counters.Multicasts != 2 || counters.Unicasts != 0 {
		t.Fatalf("counters = %+v, want 2 multicasts and 0 unicasts", counters)
	}
	// The sequencer delivers at seqnum assignment: first delivery well
	// before the uniform variant's 7 ms.
	if got := c.deliveries[0][0].at; got >= at(7) {
		t.Fatalf("non-uniform sequencer delivered at %v, want < 7ms", got)
	}
}

func TestNonUniformTotalOrderUnderLoad(t *testing.T) {
	c := newCluster(clusterOpts{n: 5, uniform: boolPtr(false)})
	for i := 0; i < 30; i++ {
		c.broadcastAt(proto.PID(i%5), at(float64(2*i)))
	}
	c.run(2 * time.Second)
	c.holds(t, proto.Prefix|proto.Destinations)
}

func TestSequencerAdvantageWithCrashes(t *testing.T) {
	// Fig. 5's GM edge: with crashes long past, the view shrinks and the
	// sequencer needs fewer acks. With n=7 and 3 crashed, the view is 4
	// strong and majority is 3 — the protocol still works.
	c := newCluster(clusterOpts{
		n:        7,
		preCrash: []proto.PID{4, 5, 6},
		members:  []proto.PID{0, 1, 2, 3},
	})
	for i := 0; i < 10; i++ {
		c.broadcastAt(proto.PID(i%4), at(float64(5*i)))
	}
	c.run(time.Second)
	c.holds(t, proto.Prefix|proto.Destinations)
}

// assignedSeq returns the sequence number the assignments window holds
// for id, if any.
func assignedSeq(p *Process, id proto.MsgID) (uint64, bool) {
	for seq := p.assignments.Lo(); seq < p.assignments.Hi(); seq++ {
		if a := p.assignments.Get(seq); a.ok && a.id == id {
			return seq, true
		}
	}
	return 0, false
}

// prunedFlushSet checks stability pruning's postcondition: no delivered
// message at or below the announced stable prefix is still in the flush
// set, and every delivered message still there was delivered in this
// view, below nextDeliver. The sequence numbers are read from the
// assignments window.
func prunedFlushSet(p *Process) error {
	for id := range p.received {
		if !p.delivered.Seen(id) {
			continue
		}
		seq, sequenced := assignedSeq(p, id)
		switch {
		case !sequenced:
			return fmt.Errorf("delivered %v in the flush set without a sequence number", id)
		case seq <= p.stableUpTo:
			return fmt.Errorf("delivered %v (seq %d) in the flush set at stableUpTo %d", id, seq, p.stableUpTo)
		case seq >= p.nextDeliver:
			return fmt.Errorf("delivered %v has seq %d, not below nextDeliver %d", id, seq, p.nextDeliver)
		}
	}
	return nil
}

func TestRandomisedFaultSchedules(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		rng := sim.NewRand(seed * 7919)
		n := 3 + 2*rng.Intn(2)
		c := newCluster(clusterOpts{
			n:    n,
			qos:  fd.QoS{TD: 10 * time.Millisecond, TMR: 400 * time.Millisecond, TM: 10 * time.Millisecond},
			seed: seed,
			afterStep: func(p *Process) {
				if err := prunedFlushSet(p); err != nil {
					t.Fatalf("seed %d: p%d at %v: %v", seed, p.rt.ID(), p.rt.Now(), err)
				}
			},
		})
		for i := 0; i < 25; i++ {
			c.broadcastAt(proto.PID(rng.Intn(n)), at(float64(rng.Intn(500))))
		}
		// At most one crash: combined with wrong suspicions, more would
		// risk losing the primary partition entirely.
		if rng.Intn(2) == 0 {
			c.sys.CrashAt(proto.PID(rng.Intn(n)), at(float64(200+rng.Intn(200))))
		}
		// Give the run a quiescent tail so liveness is assertable.
		c.eng.Schedule(at(30000), func() { c.sys.FDs.StopMistakes() })
		c.run(60 * time.Second)
		// Liveness: messages from correct senders reach all correct
		// processes once the mistakes die down.
		c.holds(t, proto.Prefix|proto.Validity)
	}
}

func TestViewSynchronyAcrossExclusion(t *testing.T) {
	// The rejoining process's delivery sequence must be a prefix-
	// consistent continuation: no gaps, no reordering versus the group.
	c := newCluster(clusterOpts{n: 3})
	c.eng.Schedule(at(30), func() {
		c.sys.FDs.InjectMistake(0, 1, 60*time.Millisecond)
	})
	for i := 0; i < 30; i++ {
		c.broadcastAt(proto.PID(i%3), at(float64(10+4*i)))
	}
	c.run(3 * time.Second)
	c.holds(t, proto.Prefix|proto.Destinations)
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []delivery {
		c := newCluster(clusterOpts{
			n:    3,
			qos:  fd.QoS{TMR: 150 * time.Millisecond, TM: 10 * time.Millisecond},
			seed: 4242,
		})
		for i := 0; i < 20; i++ {
			c.broadcastAt(proto.PID(i%3), at(float64(8*i)))
		}
		c.run(5 * time.Second)
		return c.deliveries[2]
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("delivery counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("diverged at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil Deliver did not panic")
		}
	}()
	eng := sim.New()
	sys := proto.NewSystem(eng, netmodel.DefaultConfig(1), fd.QoS{}, sim.NewRand(1))
	New(sys.Proc(0), Config{})
}

func TestViewAccessors(t *testing.T) {
	c := newCluster(clusterOpts{n: 3})
	c.run(10 * time.Millisecond)
	if !c.procs[0].IsSequencer() || c.procs[1].IsSequencer() {
		t.Fatal("sequencer role wrong")
	}
	if c.procs[1].IsExcluded() {
		t.Fatal("member reported excluded")
	}
	v := c.procs[0].View()
	if v.ID != 1 || len(v.Members) != 3 || v.Primary() != 0 {
		t.Fatalf("initial view = %v", v)
	}
	if got := v.String(); got != "v1[0 1 2]" {
		t.Fatalf("View.String() = %q", got)
	}
	_ = gm.View{} // keep the import for the helper types
}

// TestViewStateBoundedByUnstableWindow runs one long view at 500 msgs/s,
// well inside the n=3 capacity: the flush set and the per-view ordering
// tables (the assignments window by the span of its range) must stay as
// small as the unstable window (a few dozen entries here) instead of
// growing with every message the view orders.
func TestViewStateBoundedByUnstableWindow(t *testing.T) {
	const (
		broadcasts = 20000
		bound      = 96
	)
	c := newCluster(clusterOpts{n: 3})
	peak := 0
	sample := func() {
		for _, p := range c.procs {
			peak = max(peak, len(p.received)+int(p.assignments.Hi()-p.assignments.Lo()))
		}
	}
	for i := 0; i < broadcasts; i++ {
		c.broadcastAt(proto.PID(i%3), at(float64(2*i)))
		if i%100 == 0 {
			c.eng.Schedule(at(float64(2*i)), sample)
		}
	}
	c.run(45 * time.Second)
	c.holds(t, proto.Prefix|proto.Destinations)
	if v := c.procs[0].View(); v.ID != 1 {
		t.Fatalf("view changed to %v; the run must stay in one view", v)
	}
	if peak > bound {
		t.Fatalf("per-view state peaked at %d entries over %d broadcasts, want at most %d", peak, broadcasts, bound)
	}
}

// TestDeliveredBodiesAreBroadcastBodies checks that every A-delivery hands
// up the body its message was broadcast with, on both paths deliverUpTo
// takes: up to haveUpTo the body waits in its assignment slot, beyond it
// (a delivery announcement ahead of this process's data) it is looked up
// in the flush set. The workloads broadcast nil bodies, so no golden sees a
// body lost on either path. On this topology p2 hears p1 30 ms late and
// everyone else at once, so p1's data reaches p2 after its sequence
// number, and under the uniform variant after its delivery announcement
// too; the run must show both. p2 moves on at the next sequencing message
// after the data, so the run ends with broadcasts by p0 alone.
func TestDeliveredBodiesAreBroadcastBodies(t *testing.T) {
	slowLink := &topo.Topology{
		Name: "slow-link", N: 3,
		Wires: []topo.Wire{{}, {Delay: 30 * time.Millisecond}},
		Edges: []topo.Edge{
			{From: 0, To: 1, Wire: 0}, {From: 1, To: 0, Wire: 0},
			{From: 0, To: 2, Wire: 0}, {From: 2, To: 0, Wire: 0},
			{From: 2, To: 1, Wire: 0}, {From: 1, To: 2, Wire: 1},
		},
	}
	for _, uniform := range []bool{true, false} {
		late, ahead := false, false
		c := newCluster(clusterOpts{n: 3, uniform: &uniform, topology: slowLink, afterStep: func(p *Process) {
			for seq := p.haveUpTo + 1; seq < p.assignments.Hi(); seq++ {
				a := p.assignments.Get(seq)
				if _, have := p.received[a.id]; a.ok && !have && !p.delivered.Seen(a.id) {
					late = true
				}
			}
			ahead = ahead || p.nextDeliver > p.haveUpTo+1
		}})
		for i := 0; i < 60; i++ {
			c.broadcastAt(proto.PID(i%3), at(float64(3*i)))
		}
		for i := 0; i < 3; i++ {
			c.broadcastAt(0, at(float64(300+50*i)))
		}
		c.run(2 * time.Second)
		c.holds(t, proto.Prefix|proto.Destinations)
		for p, ds := range c.deliveries {
			for _, d := range ds {
				if d.body != c.bodies[d.id] {
					t.Fatalf("uniform %v: p%d delivered %v with body %v, broadcast with %v", uniform, p, d.id, d.body, c.bodies[d.id])
				}
			}
		}
		if !late || uniform && !ahead {
			t.Fatalf("uniform %v: data after its sequence number %v, delivery beyond haveUpTo %v; the run must show both paths", uniform, late, ahead)
		}
	}
}

// TestTrimLogKeepsSuffixInPlace delivers through three trims of the
// state-transfer log, each keeping the last logRetain deliveries (how in
// place is proto.Log's own test), and asks for a state transfer from
// counts across the window: one inside it gets the suffix, one below it
// every retained delivery and a snapshot of the delivered set.
func TestTrimLogKeepsSuffixInPlace(t *testing.T) {
	eng := sim.New()
	sys := proto.NewSystem(eng, netmodel.DefaultConfig(3), fd.QoS{}, sim.NewRand(1))
	delivered := uint64(0)
	p := New(sys.Proc(0), Config{Deliver: func(proto.MsgID, any) { delivered++ }})
	id := func(k uint64) proto.MsgID { return proto.MsgID{Origin: 1, Seq: k} }
	trims := 0
	var payload any
	for k := uint64(1); trims < 3; k++ {
		start := p.log.Start()
		p.deliverOne(id(k), k)
		if p.log.Start() == start {
			continue
		}
		trims++
		if p.log.Start() != k-logRetain || p.DeliveredCount() != k || delivered != k {
			t.Fatalf("trim %d after %d deliveries: log start %d, DeliveredCount %d, upcalls %d; want %d, %d, %d",
				trims, k, p.log.Start(), p.DeliveredCount(), delivered, k-logRetain, k, k)
		}
		for _, after := range []uint64{0, p.log.Start(), k - 100, k} {
			payload = p.SyncPayload(after, payload) // the last snapshot's storage, reused
			st := payload.(*syncState)
			from := max(after, p.log.Start())
			if st.Start != from || uint64(len(st.Entries)) != k-from || (st.Snap != nil) != (after < from) {
				t.Fatalf("trim %d: SyncPayload(%d) starts at %d with %d entries, snapshot %v; want %d, %d, %v",
					trims, after, st.Start, len(st.Entries), st.Snap != nil, from, k-from, after < from)
			}
			for i, e := range st.Entries {
				if want := from + uint64(i) + 1; e.ID != id(want) || e.Body != want {
					t.Fatalf("trim %d: SyncPayload(%d)[%d] = %+v, want delivery %d", trims, after, i, e, want)
				}
			}
		}
	}
}

// watchedApp stands between a process and its membership service and
// shows a test every flush snapshot the process hands out, every decided
// flush it installs and every state transfer it rejoins by.
type watchedApp struct {
	*Process
	unstable func([]gm.UnstableMsg)
	install  func([]gm.UnstableMsg)
	rejoin   func()
}

func (a watchedApp) Unstable() []gm.UnstableMsg {
	u := a.Process.Unstable()
	a.unstable(u)
	return u
}

func (a watchedApp) InstallView(v gm.View, flush []gm.UnstableMsg) {
	a.install(flush)
	a.Process.InstallView(v, flush)
}

func (a watchedApp) InstallSync(v gm.View, payload any) {
	a.rejoin()
	a.Process.InstallSync(v, payload)
}

// keptFlush is a flush set as a process held it, and the copy made when
// it was first seen.
type keptFlush struct{ held, copy []gm.UnstableMsg }

func TestDecidedViewChangesNeverChange(t *testing.T) {
	// The values of a view change are shared once decided: its members
	// become the view every member and every joiner installs, and its
	// merged flush, like every flush set a member multicast, is held by
	// all who received it. Whatever storage they are built in must never
	// change afterwards: not while the run goes on, and not after a Reset
	// starts the next run on the same processes. One GM n=5 run with
	// repeated short wrong suspicions, each excluding a member that then
	// rejoins by state transfer, then a reset and a second run. Every value
	// is copied when it is first seen; at the end every original must still
	// equal its copy.
	const n, runs, msgs, mistakes = 5, 2, 300, 14
	c := newCluster(clusterOpts{n: n})
	var views []keptMembers
	var flushes []keptFlush
	installs, rejoins, nonEmpty := 0, 0, 0
	keep := func(u []gm.UnstableMsg) {
		flushes = append(flushes, keptFlush{held: u, copy: slices.Clone(u)})
		if len(u) > 0 {
			nonEmpty++
		}
	}
	for _, pr := range c.procs {
		pr.gm.SetApp(watchedApp{
			Process:  pr,
			unstable: keep,
			install:  func(u []gm.UnstableMsg) { installs++; keep(u) },
			rejoin:   func() { rejoins++ },
		})
		pr.cfg.OnView = func(v gm.View) {
			views = append(views, keptMembers{held: v.Members, copy: slices.Clone(v.Members)})
		}
	}
	for r := 0; r < runs; r++ {
		// Every run starts on reset processes; the first reset finds them
		// as New left them, apart from the watched application.
		c.eng.Reset()
		c.sys.Reset(netmodel.DefaultConfig(n), fd.QoS{}, sim.NewRand(uint64(11+r)))
		for p, pr := range c.procs {
			c.deliveries[p] = c.deliveries[p][:0]
			pr.Reset(pr.cfg)
		}
		c.hist = proto.NewHistory(n)
		c.sys.Start()
		for i := 0; i < msgs; i++ {
			c.broadcastAt(proto.PID(i%n), at(float64(5*i)))
		}
		// A 1 ms wrong suspicion every 100 ms, each time of another
		// process by another.
		for k := 0; k < mistakes; k++ {
			q, p := k%n, (k+1+k/n)%n
			if p == q {
				p = (p + 1) % n
			}
			c.eng.Schedule(at(float64(50+100*k)), func() {
				c.sys.FDs.InjectMistake(q, p, time.Millisecond)
			})
		}
		installs, rejoins = 0, 0
		c.run(5 * time.Second)
		c.holds(t, proto.Prefix|proto.Destinations)
		if installs < mistakes || rejoins < mistakes/2 {
			t.Fatalf("run %d: %d installs and %d rejoins for %d wrong suspicions", r, installs, rejoins, mistakes)
		}
	}
	if nonEmpty == 0 {
		t.Fatal("every flush set was empty")
	}
	for i, v := range views {
		if !slices.Equal(v.held, v.copy) {
			t.Fatalf("view %d: members %v, decided %v", i, v.held, v.copy)
		}
	}
	for i, f := range flushes {
		same := slices.EqualFunc(f.held, f.copy, func(a, b gm.UnstableMsg) bool { return a.ID == b.ID && a.Seq == b.Seq })
		if !same {
			t.Fatalf("flush %d changed after it was handed out: %v, was %v", i, f.held, f.copy)
		}
	}
}

// keptMembers is a view's members as a process held them, and the copy
// made when the view was entered.
type keptMembers struct{ held, copy []proto.PID }
