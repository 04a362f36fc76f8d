// Package consensus implements the Chandra–Toueg ♦S consensus algorithm
// (Chandra & Toueg, "Unreliable failure detectors for reliable distributed
// systems", JACM 1996) with the practical optimisations the paper alludes
// to ("we included some easy optimizations in the algorithm", §4.1):
//
//   - Round-1 fast path: in the first round every timestamp is zero, so
//     the coordinator proposes its own initial value immediately, without
//     a phase-1 estimate exchange. A failure-free instance therefore costs
//     exactly proposal + acks + decision — the message pattern of Fig. 1.
//
//   - Lazy rounds: a process stays in round r until it has a reason to
//     leave (it suspects the coordinator, or learns the round was aborted,
//     or sees a higher round). The unconditional round-advance of the
//     textbook algorithm would add n estimate messages per instance even
//     in failure-free runs, breaking the Fig. 1 pattern.
//
//   - Explicit aborts: when the coordinator of round r receives a nack it
//     multicasts an abort for round r, so processes blocked waiting for
//     the decision of r move to round r+1 together. This reproduces the
//     paper's §4.4 cost model: one wrong suspicion of the coordinator
//     costs about one extra round (3 communication steps, 1 multicast and
//     about 2n unicasts).
//
//   - Decision forwarding: a decided process answers late estimates and
//     nacks with the decision, guaranteeing termination for stragglers.
//
// The instance takes a participant list, so the group-membership service
// can run consensus among the members of the current view only; the
// rotating-coordinator order starts at an arbitrary participant, which is
// what the crash-steady renumbering optimisation of §7 plugs into.
//
// Safety rests on the classic ♦S argument, untouched by the optimisations:
// the coordinator of round r proposes the estimate with the highest
// timestamp among a majority, a process acks at most once per round and
// never for a round below its current one, and a decision requires a
// majority of acks.
package consensus

import (
	"fmt"

	"repro/internal/proto"
)

// Value is an opaque consensus value. Instances never inspect it beyond
// nil checks: a nil value means "no initial value yet" and is never
// proposed or decided.
type Value any

// Msg is implemented by all consensus message types. The embedding
// protocol wraps Msg values with an instance tag before handing them to
// the transport.
type Msg interface{ isConsensusMsg() }

// MsgEstimate is the phase-1 message of rounds r ≥ 2: a participant sends
// its current estimate and timestamp to the round's coordinator.
type MsgEstimate struct {
	Round int
	Est   Value
	Ts    int
}

// MsgPropose is the coordinator's phase-2 proposal for a round.
type MsgPropose struct {
	Round int
	Est   Value
}

// MsgAck is a positive phase-3 reply to a proposal.
type MsgAck struct{ Round int }

// MsgNack is a negative phase-3 reply: the sender suspects the round's
// coordinator and has moved on.
type MsgNack struct{ Round int }

// MsgAbort is multicast by a round's coordinator after receiving a nack:
// everyone still in the round moves to the next one.
type MsgAbort struct{ Round int }

// MsgDecide carries the decision. Proposer is the coordinator whose
// proposal was decided; the crash-steady renumbering optimisation makes it
// the first coordinator of the next instance.
type MsgDecide struct {
	Val      Value
	Proposer proto.PID
}

func (MsgEstimate) isConsensusMsg() {}
func (MsgPropose) isConsensusMsg()  {}
func (MsgAck) isConsensusMsg()      {}
func (MsgNack) isConsensusMsg()     {}
func (MsgAbort) isConsensusMsg()    {}
func (MsgDecide) isConsensusMsg()   {}

// Boxing a control message into the Msg interface allocates. Rounds are
// small (round 1 in every failure-free instance), so the boxed forms of
// the round-only control messages are interned for low round numbers:
// one allocation per protocol message (the embedding protocol's instance
// tag) instead of two on the ack/nack/abort paths.
const internedRounds = 8

var ackBox, nackBox, abortBox [internedRounds + 1]Msg

func init() {
	for r := 1; r <= internedRounds; r++ {
		ackBox[r] = MsgAck{Round: r}
		nackBox[r] = MsgNack{Round: r}
		abortBox[r] = MsgAbort{Round: r}
	}
}

func ackMsg(r int) Msg {
	if r >= 1 && r <= internedRounds {
		return ackBox[r]
	}
	return MsgAck{Round: r}
}

func nackMsg(r int) Msg {
	if r >= 1 && r <= internedRounds {
		return nackBox[r]
	}
	return MsgNack{Round: r}
}

func abortMsg(r int) Msg {
	if r >= 1 && r <= internedRounds {
		return abortBox[r]
	}
	return MsgAbort{Round: r}
}

// Transport sends instance messages on behalf of the instance. The
// embedding protocol adds its instance tag and routes through the network.
// Send(self) must deliver locally; Multicast must deliver to all
// participants including the sender.
type Transport interface {
	Send(to proto.PID, m Msg)
	Multicast(m Msg)
}

// Decider is an optional interface of a Transport. An instance configured
// without a Decide callback hands its decision to the transport's Decide
// instead: an embedding protocol that pools its instances already holds a
// transport per instance, so the upcall costs no closure of its own.
type Decider interface {
	Decide(v Value, proposer proto.PID)
}

// Config parameterises one consensus instance.
type Config struct {
	// Self is the local process.
	Self proto.PID
	// Participants lists the processes running this instance, in
	// coordinator-rotation order. It must be non-empty and contain Self.
	Participants []proto.PID
	// FirstCoord is the participant that coordinates round 1. The zero
	// value of a PID is participant 0's ID only by accident: a negative
	// value selects Participants[0]. The crash-steady renumbering
	// optimisation passes the previous decision's proposer here.
	FirstCoord proto.PID
	// Suspects reports the local failure detector's current output.
	Suspects func(p proto.PID) bool
	// Decide is the decision upcall; it fires exactly once. It may be nil
	// when the transport implements Decider.
	Decide func(v Value, proposer proto.PID)
	// RefreshEstimate, if non-nil, supplies the freshest initial value
	// when a timestamp-zero estimate is sent (rounds ≥ 2). The FD atomic
	// broadcast uses it to propose its current pending set.
	RefreshEstimate func() Value
}

type phase uint8

const (
	phaseWaitPropose phase = iota + 1 // waiting for the coordinator's proposal
	phaseWaitDecide                   // acked; waiting for decision or abort
	phaseDone                         // decided
)

// roundState is the coordinator-side bookkeeping for one round. It exists
// at a process only for rounds it coordinates. Participants are tracked
// by index into Config.Participants in one flat slice — participant sets
// are tiny, so a linear index lookup beats two maps and their bucket
// allocations.
type roundState struct {
	parts    []partRound // by participant index
	estCount int
	ackCount int
	proposed bool
	proposal Value
	aborted  bool
	next     *roundState // free-list link
}

// partRound is one participant's contribution to a coordinated round.
type partRound struct {
	est    Value
	ts     int
	hasEst bool
	acked  bool
}

type estCand struct {
	est Value
	ts  int
}

// Instance is one consensus execution at one process. It is purely
// event-driven: feed it messages with OnMessage and failure-detector
// edges with OnSuspect.
//
// An embedding protocol may hold one instance per batch, so the struct is
// kept small: the flags share one word at the end, and the quorum size is
// computed rather than stored.
type Instance struct {
	cfg       Config
	tr        Transport
	coordBase int // index of FirstCoord within Participants

	// Participant state; started, lazy and phase are among the flags.
	// lazy marks an instance started without a snapshotted initial value
	// (StartLazy): it behaves exactly like a started instance whose
	// round-1 value was never needed, and the value is materialised
	// through RefreshEstimate if a round ≥ 2 estimate ever has to be sent.
	estimate Value
	ts       int
	round    int

	// Coordinator state of the rounds this process coordinates, keyed by
	// turn: a process coordinates every n-th round, so round r is its turn
	// (r-1)/n and the keys stay dense. rsFree lists recycled roundStates,
	// reused across rounds and — via Reset — across instance reuses.
	rounds proto.Window[*roundState]
	rsFree *roundState

	// Decision state; decided and relayed are among the flags.
	decision  Value
	proposer  proto.PID
	decideBox Msg    // the boxed decision message, built once, reused by relays and forwards
	forwarded []bool // by PID: the peers the decision was forwarded to

	started bool
	lazy    bool
	phase   phase
	decided bool
	relayed bool
	closed  bool
}

// New creates an instance. It panics on malformed configuration: instances
// are constructed by protocol code, not from external input.
func New(cfg Config, tr Transport) *Instance {
	inst := &Instance{}
	inst.Reset(cfg, tr)
	return inst
}

// Reset re-initialises the instance in place for a new execution,
// recycling its round bookkeeping: an embedding protocol that retires
// instances (the FD algorithm's instance window) can pool them instead
// of allocating one per batch. Resetting a live instance discards it;
// callers reset only instances they have retired. The configuration
// rules of New apply.
func (in *Instance) Reset(cfg Config, tr Transport) {
	if len(cfg.Participants) == 0 {
		panic("consensus: no participants")
	}
	if _, ok := tr.(Decider); cfg.Decide == nil && !ok {
		panic("consensus: nil Decide callback")
	}
	if cfg.Suspects == nil {
		panic("consensus: nil Suspects callback")
	}
	base := -1
	selfIn := false
	for i, p := range cfg.Participants {
		if p == cfg.FirstCoord {
			base = i
		}
		if p == cfg.Self {
			selfIn = true
		}
	}
	if !selfIn {
		panic(fmt.Sprintf("consensus: self %d not among participants %v", cfg.Self, cfg.Participants))
	}
	if base < 0 {
		base = 0
	}
	// rounds and forwarded grow lazily: rounds only at processes that
	// actually coordinate a round, forwarded only on the post-decision
	// catch-up path. In the failure-free fast path two of three processes
	// never touch either. On reuse both keep their memory and are emptied,
	// the roundStates returned to the free list in turn order.
	for k, hi := in.rounds.Lo(), in.rounds.Hi(); k < hi; k++ {
		if rs := *in.rounds.Get(k); rs != nil {
			rs.next, in.rsFree = in.rsFree, rs
		}
	}
	in.rounds.Advance(in.rounds.Hi())
	clear(in.forwarded)
	in.cfg = cfg
	in.tr = tr
	in.coordBase = base
	in.started = false
	in.lazy = false
	in.estimate = nil
	in.ts = 0
	in.round = 1
	in.phase = phaseWaitPropose
	in.decided = false
	in.decision = nil
	in.proposer = 0
	in.decideBox = nil
	in.relayed = false
	in.closed = false
}

// majority is the quorum size: more than half the participants.
func (in *Instance) majority() int { return len(in.cfg.Participants)/2 + 1 }

// Coordinator returns the coordinator of round r (1-based).
func (in *Instance) Coordinator(r int) proto.PID {
	n := len(in.cfg.Participants)
	return in.cfg.Participants[(in.coordBase+r-1)%n]
}

// index returns p's position among the participants, or -1 for a
// non-participant (whose round messages are ignored).
func (in *Instance) index(p proto.PID) int {
	for i, q := range in.cfg.Participants {
		if q == p {
			return i
		}
	}
	return -1
}

// Decided reports whether the instance has decided locally.
func (in *Instance) Decided() bool { return in.decided }

// Start supplies the local initial value (proposal). A nil value is
// ignored. Starting twice keeps the first value. If this process
// coordinates round 1, it proposes immediately — the round-1 fast path.
func (in *Instance) Start(v Value) {
	if in.decided || v == nil {
		return
	}
	if in.estimate == nil {
		in.estimate = v
	}
	in.Restart()
}

// StartLazy starts the instance without snapshotting an initial value,
// for processes that do not coordinate round 1: their round-1 value is
// never transmitted, and if the instance reaches a round ≥ 2 estimate
// exchange with the timestamp still zero, the value is materialised
// fresh through Config.RefreshEstimate at that point — exactly the
// value an eager Start would have been replaced with. Embedding
// protocols whose RefreshEstimate is always non-nil while the instance
// is live (the FD algorithm's pending set) get identical behaviour to
// Start at no snapshot cost. StartLazy after a decision, or after the
// instance already holds a value, is a no-op.
func (in *Instance) StartLazy() {
	if in.decided || in.lazy || in.estimate != nil {
		return
	}
	in.lazy = true
	in.started = true
	in.checkSuspicion()
}

// HasEstimate reports whether the instance already holds an initial
// value (possibly a lazy one), in which case Start would ignore a new
// one.
func (in *Instance) HasEstimate() bool { return in.estimate != nil || in.lazy }

// Restart re-runs Start's round-1 fast path and suspicion check without
// supplying a value. For an instance whose estimate is already set this is
// exactly Start(v) for any non-nil v — Start keeps the first value — so
// the embedding protocol can skip snapshotting a fresh proposal on every
// delivery. Restart on an instance that was never started is a no-op.
func (in *Instance) Restart() {
	if in.decided || (in.estimate == nil && !in.lazy) {
		return
	}
	in.started = true
	// The initial value doubles as this process's round-1 estimate; if we
	// coordinate round 1 we can propose it without a phase-1 exchange.
	if in.estimate != nil && in.Coordinator(1) == in.cfg.Self {
		rs := in.roundState(1)
		self := &rs.parts[in.index(in.cfg.Self)]
		if !self.hasEst || self.est == nil {
			if !self.hasEst {
				rs.estCount++
			}
			*self = partRound{est: in.estimate, ts: in.ts, hasEst: true, acked: self.acked}
		}
		in.tryPropose(1)
	}
	// Catch-up: if messages dragged us past round 1 before we had a
	// value, our estimate for the current round was nil; nothing to redo —
	// rounds ≥ 2 estimates were sent with RefreshEstimate or nil and the
	// coordinator waits for a non-nil candidate.
	in.checkSuspicion()
}

// OnMessage feeds one consensus message from a peer (or from the process
// itself, via local delivery) into the state machine.
func (in *Instance) OnMessage(from proto.PID, m Msg) {
	switch msg := m.(type) {
	case MsgEstimate:
		in.onEstimate(from, msg)
	case MsgPropose:
		in.onPropose(from, msg)
	case MsgAck:
		in.onAck(from, msg)
	case MsgNack:
		in.onNack(from, msg)
	case MsgAbort:
		in.onAbort(msg)
	case MsgDecide:
		in.decideNow(msg.Val, msg.Proposer)
	default:
		panic(fmt.Sprintf("consensus: unknown message %T", m))
	}
}

// OnSuspect feeds a failure-detector suspicion edge. Before the decision,
// only suspicion of the current round's coordinator matters — which is why
// the FD algorithm is cheap under wrong suspicions of bystanders. After
// the decision, suspicion of the decision's proposer triggers the lazy
// reliable-broadcast relay (Frolund/Pedone): the decision is re-multicast
// once, so correct processes that missed the (possibly crashed) proposer's
// multicast still decide.
func (in *Instance) OnSuspect(p proto.PID) {
	if in.decided {
		if p == in.proposer {
			in.relayDecision()
		}
		return
	}
	if p != in.Coordinator(in.round) {
		return
	}
	switch in.phase {
	case phaseWaitPropose:
		// Classic phase 3: nack tells a live coordinator to abort.
		in.tr.Send(in.Coordinator(in.round), nackMsg(in.round))
		in.enterRound(in.round + 1)
	case phaseWaitDecide:
		// Already acked; the decision may never come if the coordinator
		// crashed after proposing. Move on silently.
		in.enterRound(in.round + 1)
	}
}

// roundState returns (creating if needed) the coordinator bookkeeping for
// round r, drawing recycled states from the free list first. r must be a
// round this process coordinates: the turn is the key.
func (in *Instance) roundState(r int) *roundState {
	slot := in.rounds.At(uint64((r - 1) / len(in.cfg.Participants)))
	if *slot == nil {
		if rs := in.rsFree; rs != nil {
			in.rsFree = rs.next
			rs.reset(len(in.cfg.Participants))
			*slot = rs
		} else {
			*slot = &roundState{parts: make([]partRound, len(in.cfg.Participants))}
		}
	}
	return *slot
}

// reset clears a recycled roundState for n participants, reusing its
// parts slice when large enough.
func (rs *roundState) reset(n int) {
	if cap(rs.parts) < n {
		rs.parts = make([]partRound, n)
	} else {
		rs.parts = rs.parts[:n]
		for i := range rs.parts {
			rs.parts[i] = partRound{}
		}
	}
	rs.estCount = 0
	rs.ackCount = 0
	rs.proposed = false
	rs.proposal = nil
	rs.aborted = false
	rs.next = nil
}

// enterRound moves the participant to round r and sends its estimate to
// the new coordinator (rounds ≥ 2; round 1 has no estimate phase). If the
// new coordinator is already suspected the process nacks and advances
// again — bounded by the rotation returning to self, which is never
// self-suspected.
func (in *Instance) enterRound(r int) {
	if in.decided {
		return
	}
	in.round = r
	in.phase = phaseWaitPropose
	if r > 1 {
		est := in.estimate
		if in.ts == 0 && in.cfg.RefreshEstimate != nil {
			if fresh := in.cfg.RefreshEstimate(); fresh != nil {
				est = fresh
				in.estimate = fresh
			}
		}
		in.tr.Send(in.Coordinator(r), MsgEstimate{Round: r, Est: est, Ts: in.ts})
	}
	in.checkSuspicion()
}

// checkSuspicion applies the phase-3 suspicion rule against the current
// failure-detector output, used when entering a round or receiving a
// proposal while a mistake is in progress.
func (in *Instance) checkSuspicion() {
	if in.decided || in.phase != phaseWaitPropose {
		return
	}
	c := in.Coordinator(in.round)
	if c != in.cfg.Self && in.cfg.Suspects(c) {
		in.tr.Send(c, nackMsg(in.round))
		in.enterRound(in.round + 1)
	}
}

// onEstimate handles coordinator duty for round msg.Round, independent of
// the local participant round: estimates are buffered until a majority
// (with at least one usable value) is available.
func (in *Instance) onEstimate(from proto.PID, msg MsgEstimate) {
	if in.decided {
		in.forwardDecision(from)
		return
	}
	if in.Coordinator(msg.Round) != in.cfg.Self {
		return // misrouted; cannot happen with a correct transport
	}
	i := in.index(from)
	if i < 0 {
		return // not a participant of this instance
	}
	rs := in.roundState(msg.Round)
	if p := &rs.parts[i]; !p.hasEst {
		p.est, p.ts, p.hasEst = msg.Est, msg.Ts, true
		rs.estCount++
	}
	in.tryPropose(msg.Round)
}

// tryPropose proposes for round r once a majority of estimates (including
// a non-nil candidate) is available: the candidate with the highest
// timestamp wins — the ♦S locking rule — with ties broken toward non-nil
// values from the lowest process ID.
func (in *Instance) tryPropose(r int) {
	rs := in.roundState(r)
	if rs.proposed || rs.aborted || in.decided {
		return
	}
	if r == 1 {
		// Fast path: the round-1 coordinator proposes its own initial
		// value; no estimate quorum is needed because every timestamp in
		// the system is still zero.
		self := rs.parts[in.index(in.cfg.Self)]
		if !self.hasEst || self.est == nil {
			return
		}
		rs.proposed = true
		rs.proposal = self.est
		in.tr.Multicast(MsgPropose{Round: 1, Est: self.est})
		return
	}
	if rs.estCount < in.majority() {
		return
	}
	best := estCand{}
	bestFrom := proto.PID(-1)
	for i, p := range in.cfg.Participants { // deterministic iteration order
		cand := rs.parts[i]
		if !cand.hasEst || cand.est == nil {
			continue
		}
		if bestFrom < 0 || cand.ts > best.ts {
			best = estCand{est: cand.est, ts: cand.ts}
			bestFrom = p
		}
	}
	if bestFrom < 0 {
		return // majority of nil estimates: wait for a process with a value
	}
	rs.proposed = true
	rs.proposal = best.est
	in.tr.Multicast(MsgPropose{Round: r, Est: best.est})
}

// onPropose handles the participant side of a proposal.
func (in *Instance) onPropose(from proto.PID, msg MsgPropose) {
	if in.decided {
		return
	}
	r := msg.Round
	switch {
	case r < in.round:
		return // stale round
	case r == in.round && in.phase != phaseWaitPropose:
		return // already acked this round
	}
	// Catch up to round r as a participant.
	in.round = r
	in.phase = phaseWaitPropose
	c := in.Coordinator(r)
	if c != in.cfg.Self && in.cfg.Suspects(c) {
		// The ♦S phase-3 disjunction resolved to "suspect" before the
		// proposal was processed.
		in.tr.Send(c, nackMsg(r))
		in.enterRound(r + 1)
		return
	}
	in.estimate = msg.Est
	in.ts = r
	in.started = true
	in.phase = phaseWaitDecide
	in.tr.Send(c, ackMsg(r))
}

// onAck handles coordinator duty: count acks, decide on a majority.
func (in *Instance) onAck(from proto.PID, msg MsgAck) {
	if in.decided {
		return
	}
	if in.Coordinator(msg.Round) != in.cfg.Self {
		return
	}
	i := in.index(from)
	if i < 0 {
		return // not a participant of this instance
	}
	rs := in.roundState(msg.Round)
	if !rs.parts[i].acked {
		rs.parts[i].acked = true
		rs.ackCount++
	}
	if rs.proposed && rs.ackCount >= in.majority() {
		v := rs.proposal
		in.decideBox = MsgDecide{Val: v, Proposer: in.cfg.Self}
		in.tr.Multicast(in.decideBox)
		in.decideNow(v, in.cfg.Self)
	}
}

// onNack handles coordinator duty: the round is burned, tell everyone.
func (in *Instance) onNack(from proto.PID, msg MsgNack) {
	if in.decided {
		in.forwardDecision(from)
		return
	}
	if in.Coordinator(msg.Round) != in.cfg.Self {
		return
	}
	rs := in.roundState(msg.Round)
	if rs.aborted {
		return
	}
	rs.aborted = true
	in.tr.Multicast(abortMsg(msg.Round))
	// The abort reaches us through local delivery and advances our own
	// participant state in onAbort.
}

// onAbort moves the participant past an aborted round.
func (in *Instance) onAbort(msg MsgAbort) {
	if in.decided {
		return
	}
	if in.round <= msg.Round {
		in.enterRound(msg.Round + 1)
	}
}

// decideNow finalises the decision exactly once. If the proposer is
// already suspected at decision time, the relay fires immediately — the
// suspicion edge that would have triggered it has already passed.
func (in *Instance) decideNow(v Value, proposer proto.PID) {
	if in.decided {
		return
	}
	in.decided = true
	in.decision = v
	in.proposer = proposer
	in.phase = phaseDone
	if in.cfg.Decide != nil {
		in.cfg.Decide(v, proposer)
	} else {
		in.tr.(Decider).Decide(v, proposer)
	}
	if proposer != in.cfg.Self && in.cfg.Suspects(proposer) {
		in.relayDecision()
	}
}

// relayDecision re-multicasts the decision, at most once, while the
// instance is still open. This is the lazy reliable broadcast of the
// decision: free when nobody suspects the proposer (the common case), one
// multicast per suspecting process otherwise.
func (in *Instance) relayDecision() {
	if in.relayed || in.closed {
		return
	}
	in.relayed = true
	in.tr.Multicast(in.decidedMsg())
}

// decidedMsg returns the boxed decision message, building it at most
// once per instance.
func (in *Instance) decidedMsg() Msg {
	if in.decideBox == nil {
		in.decideBox = MsgDecide{Val: in.decision, Proposer: in.proposer}
	}
	return in.decideBox
}

// Close marks the instance as old: the embedding protocol has moved on and
// suspicion-triggered decision relays stop (decision forwarding to
// explicitly late peers continues). Closing bounds relay traffic in long
// runs with wrong suspicions.
func (in *Instance) Close() { in.closed = true }

// forwardDecision unicasts the decision to a process that demonstrably has
// not decided yet (it sent an estimate or nack). At most one copy per peer.
func (in *Instance) forwardDecision(to proto.PID) {
	if to == in.cfg.Self || (int(to) < len(in.forwarded) && in.forwarded[to]) {
		return
	}
	for int(to) >= len(in.forwarded) {
		in.forwarded = append(in.forwarded, false)
	}
	in.forwarded[to] = true
	in.tr.Send(to, in.decidedMsg())
}
