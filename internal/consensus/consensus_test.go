package consensus

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/proto"
	"repro/internal/sim"
)

// testNet connects instances through an in-memory queue with pluggable
// scheduling, so protocol logic is tested independently of the network
// model. Multicasts deliver to every participant including the sender;
// sends to self deliver locally — matching netmodel semantics.
type testNet struct {
	participants []proto.PID
	insts        map[proto.PID]*Instance
	queue        []queued
	crashed      map[proto.PID]bool
	suspects     map[proto.PID]map[proto.PID]bool
	decisions    map[proto.PID]Value
	proposers    map[proto.PID]proto.PID
	sent         map[string]int // "consensus."+kind name -> count (non-local only)
}

type queued struct {
	from, to proto.PID
	m        Msg
}

func newTestNet(participants ...proto.PID) *testNet {
	return &testNet{
		participants: participants,
		insts:        make(map[proto.PID]*Instance),
		crashed:      make(map[proto.PID]bool),
		suspects:     make(map[proto.PID]map[proto.PID]bool),
		decisions:    make(map[proto.PID]Value),
		proposers:    make(map[proto.PID]proto.PID),
		sent:         make(map[string]int),
	}
}

// transport implements Transport for one process on the testNet.
type transport struct {
	net  *testNet
	self proto.PID
}

func (tr transport) Send(to proto.PID, m Msg) {
	if tr.net.crashed[tr.self] {
		return
	}
	if to != tr.self {
		tr.net.sent["consensus."+m.Kind.String()]++
	}
	tr.net.queue = append(tr.net.queue, queued{from: tr.self, to: to, m: m})
}

func (tr transport) Multicast(m Msg) {
	if tr.net.crashed[tr.self] {
		return
	}
	tr.net.sent["consensus."+m.Kind.String()]++
	for _, p := range tr.net.participants {
		tr.net.queue = append(tr.net.queue, queued{from: tr.self, to: p, m: m})
	}
}

// build creates an instance per participant with firstCoord as round-1
// coordinator.
func (n *testNet) build(firstCoord proto.PID) {
	for _, p := range n.participants {
		p := p
		n.suspects[p] = make(map[proto.PID]bool)
		cfg := Config{
			Self:         p,
			Participants: n.participants,
			FirstCoord:   firstCoord,
			Suspects:     func(q proto.PID) bool { return n.suspects[p][q] },
			Decide: func(v Value, proposer proto.PID) {
				n.decisions[p] = v
				n.proposers[p] = proposer
			},
		}
		n.insts[p] = New(cfg, transport{net: n, self: p})
	}
}

// runFIFO delivers queued messages in FIFO order until quiescent.
func (n *testNet) runFIFO() {
	for len(n.queue) > 0 {
		q := n.queue[0]
		n.queue = n.queue[1:]
		if n.crashed[q.to] {
			continue
		}
		n.insts[q.to].OnMessage(q.from, q.m)
	}
}

// runRandom delivers queued messages in a random order until quiescent.
func (n *testNet) runRandom(rng *sim.Rand) {
	for len(n.queue) > 0 {
		i := rng.Intn(len(n.queue))
		q := n.queue[i]
		n.queue = append(n.queue[:i], n.queue[i+1:]...)
		if n.crashed[q.to] {
			continue
		}
		n.insts[q.to].OnMessage(q.from, q.m)
	}
}

// crash kills p: its queued output is removed and it stops receiving.
func (n *testNet) crash(p proto.PID) {
	n.crashed[p] = true
	kept := n.queue[:0]
	for _, q := range n.queue {
		if q.from != p {
			kept = append(kept, q)
		}
	}
	n.queue = kept
}

// suspect makes q's detector suspect p and fires the edge.
func (n *testNet) suspect(q, p proto.PID) {
	if n.crashed[q] {
		return
	}
	n.suspects[q][p] = true
	n.insts[q].OnSuspect(p)
}

// trust clears q's suspicion of p (no edge: consensus ignores trust).
func (n *testNet) trust(q, p proto.PID) { n.suspects[q][p] = false }

// completeFD makes every correct process permanently suspect every
// crashed process — the strong-completeness half of ♦S.
func (n *testNet) completeFD() {
	for _, q := range n.participants {
		if n.crashed[q] {
			continue
		}
		for _, p := range n.participants {
			if n.crashed[p] && !n.suspects[q][p] {
				n.suspect(q, p)
			}
		}
	}
}

// checkAgreementAndValidity asserts that every correct process decided,
// all decisions are equal, and the decision is one of the proposals.
func (n *testNet) checkAgreementAndValidity(t *testing.T, proposals map[proto.PID]Value) {
	t.Helper()
	var ref Value
	have := false
	for _, p := range n.participants {
		if n.crashed[p] {
			continue
		}
		v, ok := n.decisions[p]
		if !ok {
			t.Fatalf("correct process %d did not decide", p)
		}
		if !have {
			ref, have = v, true
		} else if !reflect.DeepEqual(ref, v) {
			t.Fatalf("disagreement: %v vs %v", ref, v)
		}
	}
	if !have {
		t.Fatal("no correct process decided")
	}
	valid := false
	for _, prop := range proposals {
		if reflect.DeepEqual(prop, ref) {
			valid = true
		}
	}
	if !valid {
		t.Fatalf("decision %v was never proposed (proposals %v)", ref, proposals)
	}
}

func pids(n int) []proto.PID {
	out := make([]proto.PID, n)
	for i := range out {
		out[i] = proto.PID(i)
	}
	return out
}

func TestFailureFreeDecidesCoordinatorValue(t *testing.T) {
	n := newTestNet(pids(3)...)
	n.build(0)
	proposals := map[proto.PID]Value{}
	for _, p := range n.participants {
		proposals[p] = fmt.Sprintf("v%d", p)
		n.insts[p].Start(proposals[p])
	}
	n.runFIFO()
	n.checkAgreementAndValidity(t, proposals)
	if n.decisions[0] != "v0" {
		t.Fatalf("decision = %v, want the round-1 coordinator's value v0", n.decisions[0])
	}
	for _, p := range n.participants {
		if n.proposers[p] != 0 {
			t.Fatalf("proposer at %d = %d, want 0", p, n.proposers[p])
		}
	}
}

func TestFailureFreeMessagePattern(t *testing.T) {
	// Fig. 1 pattern: one proposal multicast, n-1 remote acks... plus the
	// coordinator's self-ack (local). The testNet counts non-local sends
	// and multicasts: expect 1 propose, 2 acks, 1 decide, nothing else.
	n := newTestNet(pids(3)...)
	n.build(0)
	for _, p := range n.participants {
		n.insts[p].Start(fmt.Sprintf("v%d", p))
	}
	n.runFIFO()
	want := map[string]int{
		"consensus.MsgPropose": 1,
		"consensus.MsgAck":     2,
		"consensus.MsgDecide":  1,
	}
	if !reflect.DeepEqual(n.sent, want) {
		t.Fatalf("message counts = %v, want %v", n.sent, want)
	}
}

func TestSingleProcessDecidesAlone(t *testing.T) {
	n := newTestNet(0)
	n.build(0)
	n.insts[0].Start("solo")
	n.runFIFO()
	if n.decisions[0] != "solo" {
		t.Fatalf("decision = %v, want solo", n.decisions[0])
	}
}

func TestFirstCoordRotation(t *testing.T) {
	// FirstCoord = 2 makes p2 the round-1 coordinator: its value decides.
	n := newTestNet(pids(3)...)
	n.build(2)
	for _, p := range n.participants {
		n.insts[p].Start(fmt.Sprintf("v%d", p))
	}
	n.runFIFO()
	if n.decisions[0] != "v2" {
		t.Fatalf("decision = %v, want v2", n.decisions[0])
	}
	if c := n.insts[0].Coordinator(2); c != 0 {
		t.Fatalf("coordinator of round 2 = %d, want 0 (rotation wraps)", c)
	}
}

func TestCoordinatorCrashBeforePropose(t *testing.T) {
	n := newTestNet(pids(3)...)
	n.build(0)
	n.crash(0)
	proposals := map[proto.PID]Value{1: "v1", 2: "v2"}
	n.insts[1].Start("v1")
	n.insts[2].Start("v2")
	n.runFIFO() // nothing happens: both wait for p0's proposal
	if len(n.decisions) != 0 {
		t.Fatal("decided without coordinator")
	}
	n.completeFD() // both suspect p0 -> nack -> round 2 (coordinator p1)
	n.runFIFO()
	n.checkAgreementAndValidity(t, proposals)
	if n.decisions[1] != "v1" {
		t.Fatalf("decision = %v, want round-2 coordinator's value v1", n.decisions[1])
	}
}

func TestCoordinatorCrashAfterProposeBeforeDecide(t *testing.T) {
	// p0 proposes, all ack, but p0 crashes before the acks arrive: no
	// decision is sent. Everyone is stuck in wait-decide until suspicion.
	n := newTestNet(pids(3)...)
	n.build(0)
	proposals := map[proto.PID]Value{0: "v0", 1: "v1", 2: "v2"}
	for p, v := range proposals {
		n.insts[p].Start(v)
	}
	// Deliver only the propose multicast: 3 copies at queue head after
	// start (self + remotes). Process messages until both 1 and 2 acked.
	for len(n.queue) > 0 {
		q := n.queue[0]
		n.queue = n.queue[1:]
		if n.crashed[q.to] {
			continue
		}
		n.insts[q.to].OnMessage(q.from, q.m)
		if q.m.Kind == MsgAck && q.to == 0 {
			break // first remote ack about to be processed; crash now
		}
	}
	n.crash(0)
	n.runFIFO()
	if len(n.decisions) != 0 && n.decisions[1] != nil {
		// p0 may have decided before crashing depending on ack order;
		// uniform agreement then requires survivors to decide the same.
		// Handled below after completeFD.
		_ = n.decisions
	}
	n.completeFD()
	n.runFIFO()
	n.checkAgreementAndValidity(t, proposals)
	// Locking: survivors adopted v0 with ts=1, so round 2 must re-decide v0.
	for _, p := range []proto.PID{1, 2} {
		if n.decisions[p] != "v0" {
			t.Fatalf("decision at %d = %v, want locked value v0", p, n.decisions[p])
		}
	}
}

func TestWrongSuspicionCausesAbortAndRoundTwo(t *testing.T) {
	// p2 wrongly suspects a correct coordinator before it proposes: nack
	// -> abort -> everyone moves to round 2, which decides.
	n := newTestNet(pids(3)...)
	n.build(0)
	proposals := map[proto.PID]Value{0: "v0", 1: "v1", 2: "v2"}
	n.insts[1].Start("v1")
	n.insts[2].Start("v2")
	// p0 has no value yet, so it cannot propose round 1.
	n.suspect(2, 0) // p2 nacks and moves to round 2
	n.insts[0].Start("v0")
	n.trust(2, 0)
	n.runFIFO()
	n.checkAgreementAndValidity(t, proposals)
	if n.sent["consensus.MsgAbort"] == 0 {
		t.Fatal("no abort was sent despite a nack")
	}
}

func TestWrongSuspicionAfterAckIsSilent(t *testing.T) {
	// A process that already acked advances silently on suspicion; the
	// decision still reaches it. No abort, no nack.
	n := newTestNet(pids(3)...)
	n.build(0)
	for _, p := range n.participants {
		n.insts[p].Start(fmt.Sprintf("v%d", p))
	}
	// Deliver propose + let p1 ack; then p1 suspects p0; then the rest.
	for i := 0; i < 6 && len(n.queue) > 0; i++ {
		q := n.queue[0]
		n.queue = n.queue[1:]
		n.insts[q.to].OnMessage(q.from, q.m)
	}
	n.suspect(1, 0)
	n.trust(1, 0)
	n.runFIFO()
	if n.decisions[1] != "v0" {
		t.Fatalf("p1 decision = %v, want v0", n.decisions[1])
	}
	if n.sent["consensus.MsgAbort"] != 0 {
		t.Fatal("abort sent for a wait-decide suspicion")
	}
}

func TestSuspicionAtRoundEntryNacksImmediately(t *testing.T) {
	// The coordinator is suspected before the instance starts: entering
	// round 1 must nack and advance without waiting for a proposal.
	n := newTestNet(pids(3)...)
	n.build(0)
	n.crash(0)
	n.suspects[1][0] = true
	n.suspects[2][0] = true
	n.insts[1].Start("v1")
	n.insts[2].Start("v2")
	// Starting does not re-check suspicion by itself for non-coordinators
	// entering round 1; the edge must have fired or Start triggers the
	// check. Both paths below.
	n.insts[1].OnSuspect(0)
	n.insts[2].OnSuspect(0)
	n.runFIFO()
	if n.decisions[1] == nil || n.decisions[2] == nil {
		t.Fatal("survivors did not decide after immediate nack")
	}
}

func TestDecisionForwardingToStraggler(t *testing.T) {
	// p2 is isolated (its incoming messages withheld) while p0, p1
	// decide. When p2's late estimate reaches a decided process, the
	// decision is forwarded.
	n := newTestNet(pids(3)...)
	n.build(0)
	for _, p := range n.participants {
		n.insts[p].Start(fmt.Sprintf("v%d", p))
	}
	// Withhold deliveries to p2.
	var p2box []queued
	for len(n.queue) > 0 {
		q := n.queue[0]
		n.queue = n.queue[1:]
		if q.to == 2 {
			p2box = append(p2box, q)
			continue
		}
		n.insts[q.to].OnMessage(q.from, q.m)
	}
	if n.decisions[0] == nil || n.decisions[1] == nil {
		t.Fatal("majority did not decide without p2")
	}
	if n.decisions[2] != nil {
		t.Fatal("p2 decided while isolated")
	}
	// Drop p2's stale inbox (simulating loss through crash semantics is
	// not possible in the quasi-reliable model, but late arrival is; here
	// we exercise the recovery path: p2 suspects p0, nacks, and the
	// decided p0... is "crashed" from p2's perspective. Its nack reaches
	// p0, which forwards the decision.)
	p2box = nil
	n.suspect(2, 0)
	n.runFIFO()
	if n.decisions[2] != "v0" {
		t.Fatalf("straggler decision = %v, want v0", n.decisions[2])
	}
}

func TestDuplicateDecideUpcallImpossible(t *testing.T) {
	n := newTestNet(pids(3)...)
	n.build(0)
	count := 0
	p0 := n.insts[0]
	p0.cfg.Decide = func(v Value, proposer proto.PID) { count++ }
	for _, p := range n.participants {
		n.insts[p].Start(fmt.Sprintf("v%d", p))
	}
	n.runFIFO()
	// Feed a duplicate decide.
	p0.OnMessage(1, Msg{Kind: MsgDecide, Val: "v0", Proposer: 0})
	if count != 1 {
		t.Fatalf("decide upcall fired %d times, want 1", count)
	}
}

func TestFiveProcessesTwoCrashes(t *testing.T) {
	n := newTestNet(pids(5)...)
	n.build(0)
	proposals := map[proto.PID]Value{}
	for _, p := range n.participants {
		proposals[p] = fmt.Sprintf("v%d", p)
		n.insts[p].Start(proposals[p])
	}
	n.crash(0)
	n.crash(1)
	n.completeFD()
	n.runFIFO()
	n.checkAgreementAndValidity(t, proposals)
	// Rounds 1 and 2 are coordinated by crashed processes; round 3 (p2)
	// decides.
	if n.decisions[2] != "v2" {
		t.Fatalf("decision = %v, want v2", n.decisions[2])
	}
}

func TestRefreshEstimateSuppliesLateValue(t *testing.T) {
	// p1 and p2 have no initial value when round 2 starts; the refresh
	// callback supplies the current value so the round can decide.
	n := newTestNet(pids(3)...)
	n.build(0)
	val := map[proto.PID]Value{1: nil, 2: nil}
	for _, p := range []proto.PID{1, 2} {
		p := p
		n.insts[p].cfg.RefreshEstimate = func() Value { return val[p] }
	}
	n.crash(0)
	val[1] = "late1" // value appears before suspicion drives round 2
	n.completeFD()
	n.runFIFO()
	if n.decisions[1] != "late1" || n.decisions[2] != "late1" {
		t.Fatalf("decisions = %v, want late1 via refresh", n.decisions)
	}
}

func TestNilStartIgnored(t *testing.T) {
	n := newTestNet(pids(3)...)
	n.build(0)
	n.insts[0].Start(nil)
	n.runFIFO()
	if len(n.decisions) != 0 {
		t.Fatal("nil proposal led to a decision")
	}
	if n.insts[0].Decided() {
		t.Fatal("Decided() true without a decision")
	}
}

func TestDecidedAccessors(t *testing.T) {
	n := newTestNet(pids(3)...)
	n.build(0)
	for _, p := range n.participants {
		n.insts[p].Start(fmt.Sprintf("v%d", p))
	}
	n.runFIFO()
	if !n.insts[1].Decided() {
		t.Fatal("Decided() = false after decision")
	}
	if in := n.insts[1]; in.decision != "v0" || in.proposer != 0 {
		t.Fatalf("decision = %v/%d, want v0/0", in.decision, in.proposer)
	}
}

func TestConfigValidation(t *testing.T) {
	base := Config{
		Self:         0,
		Participants: pids(3),
		Suspects:     func(proto.PID) bool { return false },
		Decide:       func(Value, proto.PID) {},
	}
	cases := map[string]func(Config) Config{
		"no participants": func(c Config) Config { c.Participants = nil; return c },
		"nil decide":      func(c Config) Config { c.Decide = nil; return c },
		"nil suspects":    func(c Config) Config { c.Suspects = nil; return c },
		"self not member": func(c Config) Config { c.Self = 9; return c },
	}
	for name, mutate := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			New(mutate(base), transport{net: newTestNet(pids(3)...), self: 0})
		}()
	}
}

func TestSubsetParticipants(t *testing.T) {
	// Consensus among {1, 3, 4} of a 5-process system — the view-change
	// use case. PIDs outside the participant list never appear.
	members := []proto.PID{1, 3, 4}
	n := newTestNet(members...)
	n.build(3)
	proposals := map[proto.PID]Value{}
	for _, p := range members {
		proposals[p] = fmt.Sprintf("v%d", p)
		n.insts[p].Start(proposals[p])
	}
	n.runFIFO()
	n.checkAgreementAndValidity(t, proposals)
	if n.decisions[1] != "v3" {
		t.Fatalf("decision = %v, want first-coord p3's value", n.decisions[1])
	}
	if c := n.insts[1].Coordinator(2); c != 4 {
		t.Fatalf("round-2 coordinator = %d, want 4", c)
	}
}

// TestRandomisedAgreementAndTermination is the core property test: under
// random message ordering, random minority crashes and random transient
// wrong suspicions, every correct process decides the same proposed value
// once the failure detector becomes complete (the ♦S guarantee).
func TestRandomisedAgreementAndTermination(t *testing.T) {
	for seed := uint64(1); seed <= 150; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := sim.NewRand(seed)
			nProcs := 3 + rng.Intn(3)*2 // 3, 5 or 7
			n := newTestNet(pids(nProcs)...)
			n.build(proto.PID(rng.Intn(nProcs)))
			proposals := map[proto.PID]Value{}
			for _, p := range n.participants {
				proposals[p] = fmt.Sprintf("v%d", p)
				n.insts[p].Start(proposals[p])
			}
			maxCrashes := (nProcs - 1) / 2
			crashes := rng.Intn(maxCrashes + 1)

			// Interleave random deliveries with random fault events.
			for step := 0; step < 60; step++ {
				switch rng.Intn(4) {
				case 0: // deliver a few messages in random order
					for k := 0; k < 4 && len(n.queue) > 0; k++ {
						i := rng.Intn(len(n.queue))
						q := n.queue[i]
						n.queue = append(n.queue[:i], n.queue[i+1:]...)
						if !n.crashed[q.to] {
							n.insts[q.to].OnMessage(q.from, q.m)
						}
					}
				case 1: // crash someone, if budget remains
					if crashes > 0 {
						victim := proto.PID(rng.Intn(nProcs))
						if !n.crashed[victim] {
							n.crash(victim)
							crashes--
						}
					}
				case 2: // transient wrong suspicion
					q := proto.PID(rng.Intn(nProcs))
					p := proto.PID(rng.Intn(nProcs))
					if p != q && !n.crashed[q] && !n.crashed[p] {
						n.suspect(q, p)
						n.trust(q, p)
					}
				case 3: // crashed-process detection at one monitor
					for _, p := range n.participants {
						if n.crashed[p] {
							q := proto.PID(rng.Intn(nProcs))
							if !n.crashed[q] && !n.suspects[q][p] {
								n.suspect(q, p)
							}
							break
						}
					}
				}
			}

			// ♦S eventually: complete detection, stop mistakes, drain.
			n.completeFD()
			n.runRandom(rng)
			// A late straggler may still need a nudge: re-fire completeness
			// edges (idempotent) and drain again.
			n.completeFD()
			n.runRandom(rng)
			n.checkAgreementAndValidity(t, proposals)
		})
	}
}

// TestUniformAgreementWithCrashedDecider checks the uniform half of
// agreement: if a process decides v and then crashes, survivors must still
// decide v, never something else.
func TestUniformAgreementWithCrashedDecider(t *testing.T) {
	for seed := uint64(1); seed <= 80; seed++ {
		rng := sim.NewRand(seed * 7791)
		n := newTestNet(pids(3)...)
		n.build(0)
		proposals := map[proto.PID]Value{}
		for _, p := range n.participants {
			proposals[p] = fmt.Sprintf("v%d", p)
			n.insts[p].Start(proposals[p])
		}
		// Deliver randomly until the first decision, then crash that
		// process immediately.
		var firstDecider proto.PID = -1
		var firstValue Value
		for len(n.queue) > 0 && firstDecider < 0 {
			i := rng.Intn(len(n.queue))
			q := n.queue[i]
			n.queue = append(n.queue[:i], n.queue[i+1:]...)
			if n.crashed[q.to] {
				continue
			}
			n.insts[q.to].OnMessage(q.from, q.m)
			for _, p := range n.participants {
				if v, ok := n.decisions[p]; ok {
					firstDecider, firstValue = p, v
					break
				}
			}
		}
		if firstDecider < 0 {
			t.Fatalf("seed %d: no decision reached", seed)
		}
		n.crash(firstDecider)
		n.completeFD()
		n.runRandom(rng)
		for _, p := range n.participants {
			if n.crashed[p] {
				continue
			}
			v, ok := n.decisions[p]
			if !ok {
				t.Fatalf("seed %d: survivor %d undecided", seed, p)
			}
			if !reflect.DeepEqual(v, firstValue) {
				t.Fatalf("seed %d: survivor decided %v, crashed decider had %v", seed, v, firstValue)
			}
		}
	}
}

func TestDecisionRelayOnProposerSuspicion(t *testing.T) {
	// p4 decides and crashes; its decide multicast to p0 is lost. A
	// decided survivor that suspects p4 must relay the decision.
	n := newTestNet(pids(3)...)
	n.build(0)
	for _, p := range n.participants {
		n.insts[p].Start(fmt.Sprintf("v%d", p))
	}
	// Deliver until p1 decides, withholding everything addressed to p2.
	var withheld []queued
	for len(n.queue) > 0 && n.decisions[1] == nil {
		q := n.queue[0]
		n.queue = n.queue[1:]
		if q.to == 2 {
			withheld = append(withheld, q)
			continue
		}
		n.insts[q.to].OnMessage(q.from, q.m)
	}
	if n.decisions[1] == nil {
		t.Fatal("p1 did not decide")
	}
	n.crash(0)
	withheld = nil // p2's copies are gone with the crash
	// p2 never sends anything useful; p1's suspicion of p0 must save it.
	n.suspect(1, 0)
	n.suspect(2, 0)
	n.runFIFO()
	if n.decisions[2] != "v0" {
		t.Fatalf("p2 decision = %v, want relayed v0", n.decisions[2])
	}
}

func TestDecisionRelayHappensOnce(t *testing.T) {
	n := newTestNet(pids(3)...)
	n.build(0)
	for _, p := range n.participants {
		n.insts[p].Start(fmt.Sprintf("v%d", p))
	}
	n.runFIFO()
	before := n.sent["consensus.MsgDecide"]
	n.suspect(1, 0)
	n.trust(1, 0)
	n.suspect(1, 0) // second edge: no second relay
	n.runFIFO()
	after := n.sent["consensus.MsgDecide"]
	if after != before+1 {
		t.Fatalf("relays sent = %d, want exactly 1", after-before)
	}
}

func TestClosedInstanceDoesNotRelay(t *testing.T) {
	n := newTestNet(pids(3)...)
	n.build(0)
	for _, p := range n.participants {
		n.insts[p].Start(fmt.Sprintf("v%d", p))
	}
	n.runFIFO()
	n.insts[1].Close()
	before := n.sent["consensus.MsgDecide"]
	n.suspect(1, 0)
	n.runFIFO()
	if n.sent["consensus.MsgDecide"] != before {
		t.Fatal("closed instance relayed its decision")
	}
	// Forwarding still answers explicitly late peers.
	n.insts[1].OnMessage(2, Msg{Kind: MsgEstimate, Round: 5, Val: "v2", Ts: 0})
	found := false
	for _, q := range n.queue {
		if q.m.Kind == MsgDecide && q.to == 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("closed instance stopped forwarding decisions")
	}
}

// decidingTransport is a transport that also takes the decision upcall
// (Decider), for instances configured without a Decide callback.
type decidingTransport struct{ transport }

func (tr decidingTransport) Decide(v Value, proposer proto.PID) {
	tr.net.decisions[tr.self] = v
	tr.net.proposers[tr.self] = proposer
}

// TestResetReusesDecidedInstance runs the straggler scenario twice on the
// same three instances, Reset in between with another first coordinator,
// the decisions reaching the transports (no Decide callback). The first
// run leaves round bookkeeping and forwarded-to flags behind at the
// decided processes; a reset instance must forward to the same straggler
// again, or the straggler waits forever for estimates nobody sends.
func TestResetReusesDecidedInstance(t *testing.T) {
	n := newTestNet(pids(3)...)
	config := func(p, first proto.PID) Config {
		return Config{
			Self:         p,
			Participants: n.participants,
			FirstCoord:   first,
			Suspects:     func(q proto.PID) bool { return n.suspects[p][q] },
		}
	}
	for _, p := range n.participants {
		n.suspects[p] = make(map[proto.PID]bool)
		n.insts[p] = New(config(p, 0), decidingTransport{transport{net: n, self: p}})
	}
	straggle := func(run int, coord proto.PID) {
		t.Helper()
		clear(n.decisions)
		for _, p := range n.participants {
			n.insts[p].Start(fmt.Sprintf("v%d-%d", p, run))
		}
		var withheld int
		for len(n.queue) > 0 {
			q := n.queue[0]
			n.queue = n.queue[1:]
			if q.to == 2 {
				withheld++
				continue
			}
			n.insts[q.to].OnMessage(q.from, q.m)
		}
		if withheld == 0 || n.decisions[2] != nil {
			t.Fatalf("run %d: p2 was not isolated", run)
		}
		n.suspect(2, coord)
		n.runFIFO()
		want := fmt.Sprintf("v%d-%d", coord, run)
		for _, p := range n.participants {
			if n.decisions[p] != want || n.proposers[p] != coord {
				t.Fatalf("run %d: p%d decided %v from p%d, want %v from p%d", run, p, n.decisions[p], n.proposers[p], want, coord)
			}
		}
	}
	straggle(1, 0)
	for _, p := range n.participants {
		n.insts[p].Reset(config(p, 1), decidingTransport{transport{net: n, self: p}})
	}
	n.trust(2, 0)
	straggle(2, 1)
}

func TestMsgLayout(t *testing.T) {
	// A message is carried by value inside its transport's pooled wire
	// box, ctabcast's consMsg or gm.MsgConsensus: at 40 bytes, each box —
	// an 8-byte tag, the message and 24 bytes of netmodel.Box — is 72
	// bytes, in the 80-byte size class, and a copy out of the box is five
	// words.
	if got := unsafe.Sizeof(Msg{}); got != 40 {
		t.Fatalf("Msg is %d bytes, want 40", got)
	}
}

func TestKindNames(t *testing.T) {
	// Trace lines, the full-trace goldens and the benchmark's per-kind
	// send counts name consensus messages by these strings, the type names
	// the messages had when each kind was a type of its own.
	want := map[Kind]string{
		MsgEstimate:   "MsgEstimate",
		MsgPropose:    "MsgPropose",
		MsgAck:        "MsgAck",
		MsgNack:       "MsgNack",
		MsgAbort:      "MsgAbort",
		MsgDecide:     "MsgDecide",
		0:             "Kind(0)",
		MsgDecide + 1: "Kind(7)",
	}
	for k, name := range want {
		if got := k.String(); got != name {
			t.Errorf("Kind %d is %q, want %q", k, got, name)
		}
	}
	// A message without a kind is a protocol bug, named in the panic.
	n := newTestNet(pids(1)...)
	n.build(0)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "Kind(0)") {
			t.Fatalf("a message of kind 0 panicked with %v", r)
		}
	}()
	n.insts[0].OnMessage(0, Msg{})
}
