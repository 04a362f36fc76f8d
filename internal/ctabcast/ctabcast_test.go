package ctabcast

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/consensus"

	"repro/internal/fd"
	"repro/internal/netmodel"
	"repro/internal/proto"
	"repro/internal/sim"
)

// cluster is an end-to-end test harness: n FD-algorithm processes over the
// full simulated network and failure-detector stack.
type cluster struct {
	eng   *sim.Engine
	sys   *proto.System
	procs []*Process
	// deliveries[p] is the A-delivery sequence observed at process p.
	deliveries [][]delivery
	hist       *proto.History
	sent       map[proto.MsgID]sim.Time
	bodies     map[proto.MsgID]any // the body each message was broadcast with
}

type delivery struct {
	id   proto.MsgID
	at   sim.Time
	body any
}

type clusterOpts struct {
	n         int
	qos       fd.QoS
	renumber  bool
	seed      uint64
	preCrash  []proto.PID
	logRetain int // decision-log retention; 0 = the logRetain constant
}

func newCluster(o clusterOpts) *cluster {
	if o.seed == 0 {
		o.seed = 1
	}
	eng := sim.New()
	sys := proto.NewSystem(eng, netmodel.DefaultConfig(o.n), o.qos, sim.NewRand(o.seed))
	c := &cluster{
		eng:        eng,
		sys:        sys,
		procs:      make([]*Process, o.n),
		deliveries: make([][]delivery, o.n),
		hist:       proto.NewHistory(o.n),
		sent:       make(map[proto.MsgID]sim.Time),
		bodies:     make(map[proto.MsgID]any),
	}
	for i := 0; i < o.n; i++ {
		i := i
		c.procs[i] = New(sys.Proc(proto.PID(i)), Config{
			Renumber: o.renumber,
			Deliver: func(id proto.MsgID, body any) {
				c.deliveries[i] = append(c.deliveries[i], delivery{id: id, at: eng.Now(), body: body})
				c.hist.Deliver(proto.PID(i), id)
			},
		})
		if o.logRetain > 0 {
			c.procs[i].log.Retain = o.logRetain
		}
		sys.SetHandler(proto.PID(i), c.procs[i])
	}
	for _, p := range o.preCrash {
		sys.PreCrash(p)
	}
	sys.Start()
	return c
}

// broadcastAt schedules an A-broadcast from p at instant at, with a body
// naming both.
func (c *cluster) broadcastAt(p proto.PID, at sim.Time) {
	c.broadcastBodyAt(p, at, fmt.Sprintf("m-%d-%v", p, at))
}

// broadcastBodyAt schedules an A-broadcast of body from p at instant at.
func (c *cluster) broadcastBodyAt(p proto.PID, at sim.Time, body any) {
	c.eng.Schedule(at, func() {
		id := c.procs[p].ABroadcast(body)
		c.hist.Broadcast(id)
		c.sent[id] = at
		c.bodies[id] = body
	})
}

// run drives the simulation until quiescent or the horizon.
func (c *cluster) run(horizon time.Duration) {
	c.eng.RunUntil(sim.Time(0).Add(horizon))
}

// ids extracts the ID sequence of one process's deliveries.
func (c *cluster) ids(p int) []proto.MsgID {
	out := make([]proto.MsgID, len(c.deliveries[p]))
	for i, d := range c.deliveries[p] {
		out[i] = d.id
	}
	return out
}

// holds fails t unless the run meets the clauses of the specification over
// the processes that are up now, and every delivery carries its body.
func (c *cluster) holds(t *testing.T, clauses proto.Clause) {
	t.Helper()
	c.checkBodies(t)
	if err := c.hist.Check(clauses, func(p proto.PID) bool { return !c.sys.Proc(p).Crashed() }); err != nil {
		t.Fatal(err)
	}
}

// checkBodies asserts that every delivery, at every process, hands up the
// body its message was broadcast with: a decision log or a catch-up reply
// that lost or mixed up a body fails here even when every ID arrives.
func (c *cluster) checkBodies(t *testing.T) {
	t.Helper()
	for p := range c.procs {
		for _, d := range c.deliveries[p] {
			if want := c.bodies[d.id]; d.body != want {
				t.Fatalf("p%d delivered %v with body %v, broadcast with %v", p, d.id, d.body, want)
			}
		}
	}
}

func at(msf float64) sim.Time { return sim.Time(0).Add(sim.Millis(msf)) }

func TestSingleBroadcastLatency(t *testing.T) {
	// Hand-computed failure-free timing at λ=1 (the Fig. 1 pattern):
	// m: CPU₀ 0→1, wire 1→2, CPU₁/₂ 2→3. Proposal: CPU₀ 1→2, wire 2→3,
	// CPU 3→4. Ack from p1: 4→5, 5→6, 6→7 — majority at the coordinator,
	// which A-delivers at 7 ms. The redundant ack from p2 occupies CPU₀
	// 7→8, so the decision goes out 8→9, wire 9→10, CPU 10→11: the other
	// processes A-deliver at 11 ms. Latency (min over processes) = 7 ms.
	c := newCluster(clusterOpts{n: 3})
	c.broadcastAt(0, 0)
	c.run(time.Second)
	c.holds(t, proto.Destinations)
	if got := c.deliveries[0][0].at; got != at(7) {
		t.Fatalf("coordinator A-delivered at %v, want 7ms", got)
	}
	for p := 1; p < 3; p++ {
		if got := c.deliveries[p][0].at; got != at(11) {
			t.Fatalf("p%d A-delivered at %v, want 11ms", p, got)
		}
	}
}

func TestNonCoordinatorBroadcastLatency(t *testing.T) {
	// The sender being p2 does not change who decides first: the
	// coordinator p0 still A-delivers first.
	c := newCluster(clusterOpts{n: 3})
	c.broadcastAt(2, 0)
	c.run(time.Second)
	first := c.deliveries[0][0].at
	// m reaches p0 at 3 ms; proposal CPU₀ 3→4, wire 4→5, CPU 5→6; first
	// ack 6→7, 7→8, 8→9: the coordinator decides at 9 ms.
	if first != at(9) {
		t.Fatalf("coordinator delivered at %v, want 9ms", first)
	}
	c.holds(t, proto.Prefix)
}

func TestTotalOrderUnderConcurrentLoad(t *testing.T) {
	c := newCluster(clusterOpts{n: 3})
	// 60 broadcasts from all 3 senders, bursts every 2 ms.
	for i := 0; i < 20; i++ {
		for p := 0; p < 3; p++ {
			c.broadcastAt(proto.PID(p), at(float64(2*i)))
		}
	}
	c.run(5 * time.Second)
	c.holds(t, proto.Prefix|proto.Destinations)
}

func TestAggregationBatchesUnderLoad(t *testing.T) {
	// A burst of messages while instance 1 runs must be ordered by far
	// fewer consensus instances than messages.
	c := newCluster(clusterOpts{n: 3})
	for i := 0; i < 30; i++ {
		c.broadcastAt(proto.PID(i%3), at(float64(i)/4)) // 4 msgs/ms burst
	}
	c.run(time.Second)
	c.holds(t, proto.Destinations)
	instances := c.procs[0].NextInstance() - 1
	if instances == 0 || instances >= 15 {
		t.Fatalf("30 messages used %d instances; aggregation broken", instances)
	}
}

func TestSevenProcesses(t *testing.T) {
	c := newCluster(clusterOpts{n: 7})
	for i := 0; i < 10; i++ {
		c.broadcastAt(proto.PID(i%7), at(float64(5*i)))
	}
	c.run(time.Second)
	c.holds(t, proto.Prefix|proto.Destinations)
}

func TestCoordinatorCrashTransient(t *testing.T) {
	// p0 (round-1 coordinator) crashes exactly when p1 broadcasts. The
	// message must still be delivered after detection (TD) + round 2.
	td := 10 * time.Millisecond
	c := newCluster(clusterOpts{n: 3, qos: fd.QoS{TD: td}})
	crash := at(50)
	c.sys.CrashAt(0, crash)
	c.broadcastAt(1, crash)
	c.run(2 * time.Second)
	c.holds(t, proto.Prefix|proto.Destinations)
	for p := 1; p < 3; p++ {
		if got := c.deliveries[p][0].at; got.Sub(crash) <= td {
			t.Fatalf("delivered at %v, impossibly before detection at %v", got, crash.Add(td))
		}
	}
}

func TestCrashSteadyNonCoordinator(t *testing.T) {
	// A long-ago crash of a non-coordinator: everything works, nobody
	// waits for the dead process (majority is 2 of the original 3).
	c := newCluster(clusterOpts{n: 3, preCrash: []proto.PID{2}})
	c.broadcastAt(0, 0)
	c.broadcastAt(1, at(5))
	c.run(time.Second)
	if len(c.deliveries[2]) != 0 {
		t.Fatal("pre-crashed process delivered messages")
	}
	c.holds(t, proto.Prefix|proto.Destinations)
}

// lateNacks runs 40 broadcasts from p1 and p2 with the round-1 coordinator
// p0 long dead, asserts the specification, and counts the nacks sent after
// the first 200 ms.
func lateNacks(t *testing.T, renumber bool) int {
	t.Helper()
	c := newCluster(clusterOpts{n: 3, preCrash: []proto.PID{0}, renumber: renumber})
	nacks := 0
	c.sys.Net.SetTrace(func(ev netmodel.TraceEvent) {
		if cm, ok := ev.Payload.(*consMsg); ok && ev.Kind == netmodel.TraceSend && cm.M.Kind == consensus.MsgNack && ev.At > at(200) {
			nacks++
		}
	})
	for i := 0; i < 40; i++ {
		c.broadcastAt(proto.PID(1+i%2), at(float64(10*i)))
	}
	c.run(2 * time.Second)
	c.holds(t, proto.Prefix|proto.Destinations)
	return nacks
}

func TestCrashSteadyCoordinatorWithRenumbering(t *testing.T) {
	// With renumbering, after the first decision the proposer (a live
	// process) coordinates round 1 of later instances: no nacks appear in
	// the steady state.
	if n := lateNacks(t, true); n != 0 {
		t.Fatalf("renumbering left %d steady-state nacks", n)
	}
}

func TestCrashSteadyCoordinatorWithoutRenumbering(t *testing.T) {
	// Control for the renumbering ablation: without it, every instance
	// pays nacks against the dead round-1 coordinator, forever.
	if lateNacks(t, false) == 0 {
		t.Fatal("expected steady-state nacks without renumbering")
	}
}

func TestWrongSuspicionStillDelivers(t *testing.T) {
	// A transient wrong suspicion of the coordinator mid-instance burns a
	// round but loses nothing.
	c := newCluster(clusterOpts{n: 3})
	c.broadcastAt(1, at(10))
	c.eng.Schedule(at(11), func() {
		c.sys.FDs.InjectMistake(1, 0, 5*time.Millisecond)
		c.sys.FDs.InjectMistake(2, 0, 5*time.Millisecond)
	})
	c.run(time.Second)
	c.holds(t, proto.Prefix|proto.Destinations)
}

func TestSuspicionStormSafety(t *testing.T) {
	// Aggressive wrong suspicions (TMR = 20ms, TM = 2ms) with load: the
	// algorithm must stay safe and eventually deliver everything.
	c := newCluster(clusterOpts{
		n:    3,
		qos:  fd.QoS{TMR: 20 * time.Millisecond, TM: 2 * time.Millisecond},
		seed: 99,
	})
	for i := 0; i < 30; i++ {
		c.broadcastAt(proto.PID(i%3), at(float64(20*i)))
	}
	c.run(20 * time.Second)
	c.holds(t, proto.Prefix|proto.Destinations)
}

func TestUniformAgreementAcrossCrash(t *testing.T) {
	// Crash a process mid-run: everything it delivered must be delivered
	// by the survivors.
	for seed := uint64(1); seed <= 20; seed++ {
		c := newCluster(clusterOpts{n: 3, qos: fd.QoS{TD: 5 * time.Millisecond}, seed: seed})
		for i := 0; i < 20; i++ {
			c.broadcastAt(proto.PID(i%3), at(float64(3*i)))
		}
		victim := proto.PID(seed % 3)
		c.sys.CrashAt(victim, at(float64(20+seed*2)))
		c.run(5 * time.Second)
		c.holds(t, proto.Prefix|proto.Agreement)
	}
}

func TestRandomisedFaultSchedules(t *testing.T) {
	// Random crashes (minority) and random mistakes under load: safety
	// always, liveness for correct processes at quiescence.
	for seed := uint64(1); seed <= 15; seed++ {
		rng := sim.NewRand(seed * 1337)
		n := 3 + 2*rng.Intn(2) // 3 or 5
		c := newCluster(clusterOpts{
			n:    n,
			qos:  fd.QoS{TD: 10 * time.Millisecond, TMR: 300 * time.Millisecond, TM: 5 * time.Millisecond},
			seed: seed,
		})
		for i := 0; i < 25; i++ {
			sender := proto.PID(rng.Intn(n))
			c.broadcastAt(sender, at(float64(rng.Intn(400))))
		}
		crashes := rng.Intn((n-1)/2 + 1)
		crashedSet := map[proto.PID]bool{}
		for k := 0; k < crashes; k++ {
			victim := proto.PID(rng.Intn(n))
			if !crashedSet[victim] {
				crashedSet[victim] = true
				c.sys.CrashAt(victim, at(float64(100+rng.Intn(300))))
			}
		}
		c.run(30 * time.Second)
		// Validity covers correct senders only: messages from crashed
		// senders may or may not have made it.
		c.holds(t, proto.Prefix|proto.Agreement|proto.Validity)
	}
}

func TestDeliverCallbackRequired(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil Deliver did not panic")
		}
	}()
	eng := sim.New()
	sys := proto.NewSystem(eng, netmodel.DefaultConfig(1), fd.QoS{}, sim.NewRand(1))
	New(sys.Proc(0), Config{})
}

func TestGarbageCollectionBoundsState(t *testing.T) {
	c := newCluster(clusterOpts{n: 3})
	// Enough spaced-out messages to force many instances.
	for i := 0; i < 200; i++ {
		c.broadcastAt(proto.PID(i%3), at(float64(15*i)))
	}
	c.run(10 * time.Second)
	c.holds(t, proto.Destinations)
	p := c.procs[0]
	if p.NextInstance() < 100 {
		t.Fatalf("expected many instances, got %d", p.NextInstance())
	}
	if n := p.insts.Hi() - p.insts.Lo(); n > instanceWindow+2 {
		t.Fatalf("instance table grew to %d despite window %d", n, instanceWindow)
	}
	if p.msgs.Len() != 0 || p.npending != 0 {
		t.Fatalf("leftover state: %d bodies, %d pending", p.msgs.Len(), p.npending)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []delivery {
		c := newCluster(clusterOpts{
			n:    3,
			qos:  fd.QoS{TMR: 100 * time.Millisecond, TM: 3 * time.Millisecond},
			seed: 777,
		})
		for i := 0; i < 20; i++ {
			c.broadcastAt(proto.PID(i%3), at(float64(7*i)))
		}
		c.run(5 * time.Second)
		return c.deliveries[1]
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("non-deterministic delivery count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic delivery %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestRenumberingUnderSustainedSuspicions(t *testing.T) {
	// With renumbering on and periodic wrong suspicions, instances keep
	// being created reactively before their predecessors are delivered,
	// exercising the buffered-consensus-message path (messages for
	// instance k+1 arriving before decision k fixes the coordinator
	// order).
	c := newCluster(clusterOpts{
		n:        3,
		renumber: true,
		qos:      fd.QoS{TMR: 60 * time.Millisecond, TM: 4 * time.Millisecond},
		seed:     31,
	})
	for i := 0; i < 60; i++ {
		c.broadcastAt(proto.PID(i%3), at(float64(3*i)))
	}
	c.run(10 * time.Second)
	c.holds(t, proto.Prefix|proto.Destinations)
}

func TestHandlerSurface(t *testing.T) {
	c := newCluster(clusterOpts{n: 3})
	p := c.procs[0]
	p.Init()     // no-op, must not panic
	p.OnTrust(1) // FD algorithm ignores trust edges
	if p.Pending() != 0 {
		t.Fatalf("Pending = %d on idle process", p.Pending())
	}
	c.broadcastAt(0, 0)
	c.run(20 * time.Millisecond)
	if p.Pending() != 0 {
		t.Fatalf("Pending = %d after delivery", p.Pending())
	}
	// consMsg names its inner message for traces.
	s := consMsg{K: 3, M: consensus.Msg{Kind: consensus.MsgAck, Round: 1}}.String()
	if s != "MsgAck[k=3]" {
		t.Fatalf("consMsg.String() = %q", s)
	}
}

func TestUnknownPayloadPanics(t *testing.T) {
	c := newCluster(clusterOpts{n: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("unknown payload did not panic")
		}
	}()
	c.procs[0].OnMessage(0, struct{ weird int }{1})
}

func TestVeryLateStragglerMessagesIgnored(t *testing.T) {
	// Messages for instances below the GC window are dropped silently.
	c := newCluster(clusterOpts{n: 3})
	p := c.procs[0]
	p.insts.Advance(100)
	p.OnMessage(1, &consMsg{K: 5, M: consensus.Msg{Kind: consensus.MsgAck, Round: 1}})
	// Nothing to assert beyond "no panic and no instance created".
	if p.insts.Get(5) != nil {
		t.Fatal("GC'd instance resurrected")
	}
}

// watched forwards a process's events and reports each one afterwards,
// so a test can look at the process between events.
type watched struct {
	*Process
	after func()
}

func (w watched) OnMessage(from proto.PID, payload any) {
	w.Process.OnMessage(from, payload)
	w.after()
}

func (w watched) OnSuspect(q proto.PID) {
	w.Process.OnSuspect(q)
	w.after()
}

// decidedBatch is one decision as a process holds it, beside a copy taken
// when the decision was first seen.
type decidedBatch struct {
	held, copy []proto.MsgID
}

func TestDecidedBatchesNeverChange(t *testing.T) {
	// A decided batch is shared by every process that decides it, by the
	// decision log and by the messages that forward it. Whatever storage a
	// proposal is built in must therefore never change once decided: not
	// while the run goes on, and not after a Reset starts the next run on
	// the same processes. One FD n=3 run at a rate that batches, with wrong
	// suspicions that send round-2 estimates (RefreshEstimate snapshots),
	// then a reset and a second run. Every decision is copied
	// as soon as it is seen; at the end every held batch, every retained
	// log entry and every delivered order must still equal the copies.
	const n, runs, msgs = 3, 2, 600
	qos := fd.QoS{TMR: 30 * time.Millisecond, TM: 3 * time.Millisecond}
	c := newCluster(clusterOpts{n: n, qos: qos})
	batches := make([][]map[uint64]*decidedBatch, runs)
	delivered := make([][][]proto.MsgID, runs)
	run := 0
	scan := func(p int) {
		pr := c.procs[p]
		for k, hi := pr.insts.Lo(), pr.insts.Hi(); k < hi; k++ {
			e := pr.insts.Get(k)
			if e == nil || !e.decided || batches[run][p][k] != nil {
				continue
			}
			batches[run][p][k] = &decidedBatch{held: e.ids, copy: append([]proto.MsgID(nil), e.ids...)}
		}
	}
	estimates := 0
	countEstimates := func(ev netmodel.TraceEvent) {
		if cm, ok := ev.Payload.(*consMsg); ok && ev.Kind == netmodel.TraceSend && strings.HasPrefix(cm.String(), "MsgEstimate") {
			estimates++
		}
	}
	for p := 0; p < n; p++ {
		p := p
		deliver := c.procs[p].cfg.Deliver
		c.procs[p].cfg.Deliver = func(id proto.MsgID, body any) {
			scan(p) // before anything later in this event builds a proposal
			delivered[run][p] = append(delivered[run][p], id)
			deliver(id, body)
		}
	}
	for r := 0; r < runs; r++ {
		run = r
		batches[r] = make([]map[uint64]*decidedBatch, n)
		delivered[r] = make([][]proto.MsgID, n)
		// Every run starts on reset processes; the first reset finds them
		// as New left them, apart from the watched handlers.
		c.eng.Reset()
		c.sys.Reset(netmodel.DefaultConfig(n), qos, sim.NewRand(uint64(5+r)))
		for p := 0; p < n; p++ {
			batches[r][p] = make(map[uint64]*decidedBatch)
			c.deliveries[p] = c.deliveries[p][:0]
			c.procs[p].Reset(c.procs[p].cfg)
			if r == 0 {
				p := p
				c.sys.SetHandler(proto.PID(p), watched{c.procs[p], func() { scan(p) }})
			}
		}
		c.hist = proto.NewHistory(n)
		clear(c.sent)
		clear(c.bodies)
		c.sys.Start()
		c.sys.Net.SetTrace(countEstimates)
		estimates = 0
		for i := 0; i < msgs; i++ {
			c.broadcastAt(proto.PID(i%n), at(float64(i)/2))
		}
		c.run(10 * time.Second)
		c.holds(t, proto.Prefix|proto.Destinations)
		if estimates == 0 {
			t.Fatalf("run %d: no round-2 estimate was sent", r)
		}
		for p := 0; p < n; p++ {
			scan(p)
		}
	}

	batched := false
	for r := 0; r < runs; r++ {
		for p := 0; p < n; p++ {
			for k, b := range batches[r][p] {
				if !slices.Equal(b.held, b.copy) {
					t.Fatalf("run %d p%d: batch %d changed after its decision: %v, decided %v", r, p, k, b.held, b.copy)
				}
				batched = batched || len(b.copy) > 1
			}
			// The delivered order is each batch in ID order, an ID decided
			// twice delivered once, batch after batch.
			var want []proto.MsgID
			seen := make(map[proto.MsgID]bool)
			for k := uint64(1); batches[r][p][k] != nil; k++ {
				sorted := slices.Clone(batches[r][p][k].copy)
				proto.SortMsgIDs(sorted)
				for _, id := range sorted {
					if !seen[id] {
						seen[id] = true
						want = append(want, id)
					}
				}
			}
			if got := delivered[r][p]; len(got) != msgs || !slices.Equal(got, want) {
				t.Fatalf("run %d p%d: delivered %d messages, not the decided batches' order", r, p, len(got))
			}
		}
	}
	if !batched {
		t.Fatal("no batch ordered more than one message")
	}
	for p, pr := range c.procs {
		start, entries, _ := pr.log.Suffix(pr.log.Start())
		if len(entries) == 0 {
			t.Fatalf("p%d retained no log entry", p)
		}
		for i, e := range entries {
			k := start + uint64(i)
			b := batches[runs-1][p][k]
			if b == nil || !slices.Equal(e.ids, b.copy) {
				t.Fatalf("p%d: log entry %d is %v, decided %v", p, k, e.ids, b)
			}
		}
	}
}
