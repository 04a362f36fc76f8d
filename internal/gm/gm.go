// Package gm implements the view-synchronous group membership service the
// paper's GM atomic broadcast relies on (§4.3, after Malloth & Schiper,
// "View synchronous communication in large scale distributed systems").
//
// The service maintains the view — the ordered list of processes believed
// correct — and guarantees that members see the same sequence of views
// (view agreement), deliver the same set of messages in each view (view
// synchrony) and deliver each message in one view (same view delivery).
//
// A view change follows the paper's protocol exactly:
//
//  1. A process that suspects a member multicasts a "view change" message.
//  2. As soon as a process learns about the change (the view-change
//     message, someone's flush, or a consensus message), it multicasts its
//     unstable messages to all members.
//  3. When a process has the flush of every member it does not suspect —
//     call that set P, required to be a majority (primary partition) — it
//     computes the union U of the unstable messages received and proposes
//     (P, U) to a consensus instance run among the old view's members.
//  4. The decision (P′, U′) is applied: deliver the messages of U′ not yet
//     delivered, in a deterministic order, and install P′ as the next
//     view.
//
// Joins run through the same protocol: a member that accepts a join
// request proposes a membership including the joiner, and after the
// install the joiner receives the new view together with an
// application-defined state snapshot (the paper's state transfer for
// wrongly excluded processes). Processes excluded from a view miss all
// later views until they rejoin.
//
// The consensus instance benefits from the round-1 fast path: the first
// member proposes its own (P, U) without an estimate exchange, giving the
// paper's view-change cost of 5 communication steps, about n multicasts
// and n unicasts.
package gm

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/consensus"
	"repro/internal/netmodel"
	"repro/internal/proto"
)

// View is one membership epoch. Members are ordered: survivors keep their
// relative order across changes and joiners are appended, so Members[0] —
// the paper's sequencer — only changes when it is excluded.
//
// A view is an immutable value: the service installs the decided Members
// slice as it is, shares it with the application, the consensus instance
// of the next change and every joiner's Welcome, and nobody writes it
// afterwards. A caller that wants to change a view's members copies them;
// Start copies the initial view's.
type View struct {
	ID      uint64
	Members []proto.PID
}

// Contains reports whether p is a member of the view.
func (v View) Contains(p proto.PID) bool {
	for _, m := range v.Members {
		if m == p {
			return true
		}
	}
	return false
}

// Primary returns the first member — the fixed sequencer of the GM atomic
// broadcast. It panics on an empty view, which is never installed.
func (v View) Primary() proto.PID { return v.Members[0] }

// String formats the view as "v3{0 2 4}".
func (v View) String() string { return fmt.Sprintf("v%d%v", v.ID, v.Members) }

// UnstableMsg is one element of a flush: a received message that is not
// known to be stable, with its sequence number if one is known (Seq < 0
// otherwise).
type UnstableMsg struct {
	ID   proto.MsgID
	Seq  int64
	Body any
}

// App is the view-synchronous application sitting on top of the service —
// the fixed-sequencer atomic broadcast in this repository.
type App interface {
	// Unstable snapshots the local flush set. Every member that receives
	// the snapshot keeps it, so its storage must never be written again.
	Unstable() []UnstableMsg
	// InstallView applies a decided view change at a surviving member:
	// deliver every message of flush not yet delivered, in the given
	// order, then switch to v.
	InstallView(v View, flush []UnstableMsg)
	// Excluded tells the application it was dropped from the membership;
	// it should queue work until InstallSync. lastView is the last view
	// it belonged to.
	Excluded(lastView View)
	// SyncRequest returns the number of messages delivered locally, sent
	// with join requests so a member can compute the missing suffix.
	SyncRequest() uint64
	// SyncPayload builds the state-transfer snapshot for a joiner that
	// has delivered afterCount messages. reuse is the snapshot of a
	// recycled Welcome, nil for a fresh one: its storage is free to build
	// the new snapshot in.
	SyncPayload(afterCount uint64, reuse any) any
	// InstallSync applies a state snapshot and enters view v — the
	// joiner-side counterpart of InstallView. The snapshot is only valid
	// until it returns.
	InstallSync(v View, payload any)
}

const (
	// joinRetry is the interval at which an excluded process re-sends its
	// join request: 20 ms, several round trips of the paper's network
	// model — rejoining more eagerly would understate the exclusion cost
	// the paper charges to the GM algorithm.
	joinRetry = 20 * time.Millisecond
	// staleTimeout is how long a member may stay behind buffered
	// future-view traffic, with no view installed meanwhile, before it
	// concludes the group reconfigured without it — it was partitioned
	// away and excluded in absentia — and rejoins through the join
	// protocol. A process excluded while reachable learns its exclusion
	// from the view-change decision it participates in; a partitioned one
	// cannot, and without this probe it would stay wedged in its old view
	// forever after the partition heals. Five join retries, 100 ms: many
	// times the few round trips a view change takes on an uncongested
	// network, so a view merely being installed does not trip it.
	staleTimeout = 5 * joinRetry
	// maxExcludedBuffer bounds membership traffic buffered while excluded.
	maxExcludedBuffer = 4096
)

// Message types. They are routed to GM.OnMessage by the embedding
// protocol.
//
// Wire copies travel as pointer boxes drawn from the sending GM's pools
// (netmodel.Box). A receiver copies out what it uses inside its handler,
// or retains the box to buffer it; what it keeps after the handler
// returns — a flush set, a view's members, a decided proposal — is carved
// from a slab (proto.Slab) and never written again.
type (
	// MsgViewChange announces that a view change for the view with the
	// given ID has started. Targets lists the suspected processes whose
	// exclusion the initiator demands: every participant removes them
	// from its membership proposal, so a wrong suspicion excludes the
	// suspected process just like a real crash would (§4.4: "the
	// algorithms react to a wrong suspicion the same way as they react
	// to a real crash").
	//
	// A recycled box keeps its Targets array for the next announcement.
	MsgViewChange struct {
		VC      uint64
		Targets []proto.PID
		netmodel.Box[MsgViewChange]
	}
	// MsgFlush carries a member's unstable messages for a view change.
	MsgFlush struct {
		VC       uint64
		Unstable []UnstableMsg
		netmodel.Box[MsgFlush]
	}
	// MsgConsensus wraps a consensus message of view change VC.
	MsgConsensus struct {
		VC uint64
		M  consensus.Msg
		netmodel.Box[MsgConsensus]
	}
	// MsgJoinReq is multicast by an excluded process asking back in.
	MsgJoinReq struct {
		P     proto.PID
		After uint64 // messages already delivered (state-transfer base)
		netmodel.Box[MsgJoinReq]
	}
	// MsgWelcome hands a joiner its new view plus the state snapshot. A
	// recycled box keeps its Payload for the application to build the
	// next snapshot in (App.SyncPayload).
	MsgWelcome struct {
		View    View
		Payload any
		netmodel.Box[MsgWelcome]
	}
)

// proposal is the consensus value of a view change, handed to consensus
// as a *proposal carved from the proposer's slab, with its members and
// merged flush carved beside it.
type proposal struct {
	Members []proto.PID
	Flush   []UnstableMsg
}

// Chunk sizes of the slabs the values of a view change are carved from:
// small first, so a process that changes views rarely pays little,
// doubling up to the largest.
const (
	memberChunkMin, memberChunkMax     = 16, 1024
	proposalChunkMin, proposalChunkMax = 4, 256
	flushChunkMin, flushChunkMax       = 16, 1024
)

type state int

const (
	stateNormal   state = iota + 1 // member, no change in progress
	stateChanging                  // flush/consensus in progress
	stateExcluded                  // not a member; join loop running
)

// GM is the membership endpoint at one process.
type GM struct {
	rt  proto.Runtime
	app App

	view    View
	state   state
	started bool

	// Current view change (keyed vc == view.ID).
	flushes      map[proto.PID][]UnstableMsg
	targets      map[proto.PID]bool // exclusion demands for this change
	inst         *consensus.Instance
	prevInst     *consensus.Instance // kept one change for stragglers
	pendingJoins map[proto.PID]uint64

	// The records the instances of view changes run in, recycled (see
	// instance), and the detector's Suspects bound once, on first use.
	changes  []*change
	suspects func(proto.PID) bool

	// Buffered messages for future view changes (we have not installed
	// the views that define their participant sets yet), each box retained
	// until it is replayed or dropped; futureLen counts them all, and
	// emptied slices wait in futureFree for the next view's.
	future     map[uint64][]futureMsg
	futureLen  int
	futureFree [][]futureMsg

	// The join loop's timer: pending while excluded, until welcomed back.
	// It and the staleness probe's are made on first use: a member that
	// never leaves its view, as in every steady run, needs neither.
	joinTimer *proto.Alarm
	// Staleness probe: armed while evidence of views beyond ours exists
	// (buffered future membership traffic, or higher-view protocol
	// messages reported through NoteHigherView), it self-excludes a
	// member the group reconfigured around (partition).
	staleTimer  *proto.Alarm
	staleViewID uint64
	maxSeenView uint64

	// Scratch reused by every tryPropose and mergeFlushes call.
	survivors []proto.PID
	flushBuf  []UnstableMsg

	// Wire box pools, one per message type, and the slabs of the values
	// every member of a view change keeps: decided members, proposals,
	// merged flushes.
	vcPool      netmodel.Pool[MsgViewChange]
	flushPool   netmodel.Pool[MsgFlush]
	consPool    netmodel.Pool[MsgConsensus]
	joinPool    netmodel.Pool[MsgJoinReq]
	welcomePool netmodel.Pool[MsgWelcome]
	memberSlab  proto.Slab[proto.PID]
	propSlab    proto.Slab[proposal]
	flushSlab   proto.Slab[UnstableMsg]
}

type futureMsg struct {
	from proto.PID
	msg  netmodel.Pooled // *MsgViewChange, *MsgFlush or *MsgConsensus, retained
}

// New creates the membership service. SetApp must be called before Start.
func New(rt proto.Runtime) *GM {
	// The clear hooks zero what a box carries, so a box recycled while
	// still in use shows as a stale message; only the buffers a box owns
	// survive, for its next use.
	return &GM{
		rt:           rt,
		flushes:      make(map[proto.PID][]UnstableMsg),
		targets:      make(map[proto.PID]bool),
		pendingJoins: make(map[proto.PID]uint64),
		future:       make(map[uint64][]futureMsg),
		vcPool:       netmodel.NewPool(func(m *MsgViewChange) { m.VC, m.Targets = 0, m.Targets[:0] }),
		flushPool:    netmodel.NewPool(func(m *MsgFlush) { m.VC, m.Unstable = 0, nil }),
		consPool:     netmodel.NewPool(func(m *MsgConsensus) { m.VC, m.M = 0, consensus.Msg{} }),
		joinPool:     netmodel.NewPool(func(m *MsgJoinReq) { m.P, m.After = 0, 0 }),
		welcomePool:  netmodel.NewPool(func(m *MsgWelcome) { m.View = View{} }),
	}
}

// Reset returns the service to the state New leaves it in, on its own
// runtime and with its application: not started, no view, no change, join
// or probe in progress. Its maps, scratch, change and timer records, box
// pools and slabs keep their storage — the slabs carve on where they
// stopped, so no value of the previous run is overwritten — and every
// buffered box is released. The runtime's timers of the previous run must
// not fire afterwards (the engine is reset alongside).
func (g *GM) Reset() {
	for vc := range g.future {
		g.dropFuture(vc)
	}
	clear(g.flushes)
	clear(g.targets)
	clear(g.pendingJoins)
	*g = GM{
		rt:           g.rt,
		app:          g.app,
		flushes:      g.flushes,
		targets:      g.targets,
		pendingJoins: g.pendingJoins,
		future:       g.future,
		futureFree:   g.futureFree,
		changes:      g.changes,
		suspects:     g.suspects,
		joinTimer:    g.joinTimer,
		staleTimer:   g.staleTimer,
		survivors:    g.survivors[:0],
		flushBuf:     g.flushBuf[:0],
		vcPool:       g.vcPool,
		flushPool:    g.flushPool,
		consPool:     g.consPool,
		joinPool:     g.joinPool,
		welcomePool:  g.welcomePool,
		memberSlab:   g.memberSlab,
		propSlab:     g.propSlab,
		flushSlab:    g.flushSlab,
	}
}

// SetApp installs the view-synchronous application.
func (g *GM) SetApp(app App) { g.app = app }

// Start installs the initial view. A process outside the initial view
// starts excluded and immediately begins the join loop — this is how the
// crash-steady scenarios model long-ago reconfigurations.
func (g *GM) Start(initial View) {
	if g.app == nil {
		panic("gm: Start before SetApp")
	}
	if g.started {
		panic("gm: started twice")
	}
	g.started = true
	// The caller owns initial's members; every later view is the service's.
	g.view = View{ID: initial.ID, Members: slices.Clone(initial.Members)}
	if g.view.Contains(g.rt.ID()) {
		g.state = stateNormal
	} else {
		g.state = stateExcluded
		g.startJoinLoop()
	}
}

// View returns the current view (the last one installed locally).
func (g *GM) View() View { return g.view }

// Normal reports whether the process is a member with no change in
// progress — the condition under which the sequencer protocol runs.
func (g *GM) Normal() bool { return g.state == stateNormal }

// IsMember reports whether the process belongs to its current view.
func (g *GM) IsMember() bool { return g.state != stateExcluded }

// OnMessage consumes membership-related payloads; it returns false for
// payloads that belong to other layers.
func (g *GM) OnMessage(from proto.PID, payload any) bool {
	switch m := payload.(type) {
	case *MsgViewChange:
		g.onViewChange(from, m)
	case *MsgFlush:
		g.onFlush(from, m)
	case *MsgConsensus:
		g.onConsensus(from, m)
	case *MsgJoinReq:
		g.onJoinReq(m)
	case *MsgWelcome:
		g.onWelcome(m)
	default:
		return false
	}
	return true
}

// OnSuspect feeds a failure-detector suspicion edge: suspicion of a member
// starts a view change targeting it (the paper's trigger), and the
// consensus instance of an in-progress change reacts to coordinator
// suspicion.
func (g *GM) OnSuspect(p proto.PID) {
	switch g.state {
	case stateNormal:
		if g.view.Contains(p) && p != g.rt.ID() {
			g.startChange(p)
		}
	case stateChanging:
		if g.view.Contains(p) && p != g.rt.ID() {
			g.targets[p] = true // affects our proposal if not yet made
		}
		if g.inst != nil {
			g.inst.OnSuspect(p)
		}
		g.tryPropose()
	}
	if g.prevInst != nil {
		g.prevInst.OnSuspect(p)
	}
}

// OnTrust re-evaluates the flush condition: a trusted member re-enters P,
// so its flush may now be required.
func (g *GM) OnTrust(proto.PID) {
	if g.state == stateChanging {
		g.tryPropose()
	}
}

// startChange moves from Normal to Changing: announce (with exclusion
// targets) and flush.
func (g *GM) startChange(targets ...proto.PID) {
	m := g.vcPool.Get()
	m.VC, m.Targets = g.view.ID, append(m.Targets, targets...)
	g.rt.Multicast(m)
	g.enterFlush()
	for _, p := range targets {
		if g.view.Contains(p) {
			g.targets[p] = true
		}
	}
}

// enterFlush is the "learned about a view change" transition: multicast
// the local unstable messages once.
func (g *GM) enterFlush() {
	if g.state != stateNormal {
		return
	}
	g.state = stateChanging
	clear(g.flushes)
	clear(g.targets)
	g.inst = nil
	m := g.flushPool.Get()
	m.VC, m.Unstable = g.view.ID, g.app.Unstable()
	g.rt.Multicast(m)
}

// onViewChange, onFlush and onConsensus buffer a message of a view not
// yet installed by retaining its box.
func (g *GM) onViewChange(from proto.PID, m *MsgViewChange) {
	switch {
	case g.state == stateExcluded:
		g.bufferWhileExcluded(m.VC, from, m)
		return
	case m.VC < g.view.ID:
		return // stale
	case m.VC > g.view.ID:
		g.bufferFuture(m.VC, from, m)
	default:
		g.enterFlush()
		for _, p := range m.Targets {
			// A process records exclusion demands against itself too:
			// otherwise a wrongly suspected sequencer — the round-1
			// coordinator of the view-change consensus — would win the
			// fast path with its own full-membership proposal and never
			// be excluded, hiding the cost the paper charges to wrong
			// suspicions.
			if g.view.Contains(p) {
				g.targets[p] = true
			}
		}
		g.tryPropose()
	}
}

func (g *GM) onFlush(from proto.PID, m *MsgFlush) {
	switch {
	case g.state == stateExcluded:
		g.bufferWhileExcluded(m.VC, from, m)
		return
	case m.VC < g.view.ID:
		return
	case m.VC > g.view.ID:
		g.bufferFuture(m.VC, from, m)
		return
	}
	g.enterFlush() // no-op if already changing
	if _, dup := g.flushes[from]; !dup {
		g.flushes[from] = m.Unstable
	}
	g.tryPropose()
}

func (g *GM) onConsensus(from proto.PID, m *MsgConsensus) {
	switch {
	case g.state == stateExcluded:
		g.bufferWhileExcluded(m.VC, from, m)
		return
	case m.VC < g.view.ID:
		// A straggler's message for an old change: the retained previous
		// instance answers with its decision.
		// After a rejoin prevInst is the change two views back (ROADMAP 3f).
		if g.prevInst != nil && m.VC == g.view.ID-1 {
			g.prevInst.OnMessage(from, m.M)
		}
		return
	case m.VC > g.view.ID:
		g.bufferFuture(m.VC, from, m)
		return
	}
	g.enterFlush()
	g.instance().OnMessage(from, m.M)
}

// bufferFuture keeps m, retained, for the change vc.
func (g *GM) bufferFuture(vc uint64, from proto.PID, m netmodel.Pooled) {
	m.Retain(1)
	msgs, ok := g.future[vc]
	if n := len(g.futureFree); !ok && n > 0 {
		msgs, g.futureFree = g.futureFree[n-1], g.futureFree[:n-1]
	}
	g.future[vc] = append(msgs, futureMsg{from: from, msg: m})
	g.futureLen++
	if g.state != stateExcluded {
		g.armStaleProbe()
	}
}

// takeFuture removes the messages buffered for change vc and returns them,
// nil if there are none; the caller releases each and hands the slice
// back with freeFuture.
func (g *GM) takeFuture(vc uint64) []futureMsg {
	msgs := g.future[vc]
	delete(g.future, vc)
	g.futureLen -= len(msgs)
	return msgs
}

func (g *GM) freeFuture(msgs []futureMsg) {
	clear(msgs)
	g.futureFree = append(g.futureFree, msgs[:0])
}

// dropFuture releases, unreplayed, the messages buffered for change vc.
func (g *GM) dropFuture(vc uint64) {
	msgs := g.takeFuture(vc)
	for _, fm := range msgs {
		fm.msg.Release()
	}
	g.freeFuture(msgs)
}

// NoteHigherView records evidence that views beyond ours exist: the
// application layer saw a protocol message tagged with a higher view
// number. A member mid-change sees those transiently; a partitioned-away
// member sees nothing else, which is what the staleness probe detects.
func (g *GM) NoteHigherView(vc uint64) {
	if g.state == stateExcluded || vc <= g.view.ID {
		return
	}
	if vc > g.maxSeenView {
		g.maxSeenView = vc
	}
	g.armStaleProbe()
}

// armStaleProbe watches a member that is buffering traffic of views it
// has not installed. One probe is armed at a time.
func (g *GM) armStaleProbe() {
	if g.staleTimer == nil {
		g.staleTimer = g.rt.NewAlarm(g.staleCheck)
	} else if g.staleTimer.Pending() {
		return
	}
	g.staleViewID = g.view.ID
	g.staleTimer.Arm(staleTimeout)
}

// staleCheck fires one staleTimeout after future-view traffic appeared.
// If a view was installed meanwhile, the member is making progress and
// the probe re-arms; if not — a full timeout behind the group with no
// install — the group demonstrably reconfigured without us while we could
// not communicate, so conclude exclusion and rejoin.
func (g *GM) staleCheck() {
	if g.state == stateExcluded {
		return
	}
	stale := g.maxSeenView > g.view.ID
	for vc := range g.future {
		if vc > g.view.ID {
			stale = true
			break
		}
	}
	if !stale {
		return
	}
	if g.view.ID != g.staleViewID {
		g.armStaleProbe() // installs are happening; keep watching
		return
	}
	g.selfExclude()
}

// selfExclude is the partition-side counterpart of an exclusion decided
// in absentia: abandon any change in progress, tell the application, and
// enter the join loop — from here the rejoin path is identical to a
// wrongly excluded process's.
func (g *GM) selfExclude() {
	oldView := g.view
	g.inst = nil
	g.prevInst = nil
	clear(g.flushes)
	clear(g.targets)
	g.state = stateExcluded
	g.app.Excluded(oldView)
	g.startJoinLoop()
}

// bufferWhileExcluded retains membership traffic an excluded process
// cannot act on yet: if its Welcome admits it to the view this traffic
// belongs to, the replay lets it take part in an already-running change —
// without this, the group could wait forever for the rejoined member's
// flush. The buffer is bounded; join retries recover from overflow.
func (g *GM) bufferWhileExcluded(vc uint64, from proto.PID, m netmodel.Pooled) {
	if vc < g.view.ID || g.futureLen >= maxExcludedBuffer {
		return
	}
	g.bufferFuture(vc, from, m)
}

// replayFuture feeds back messages buffered for the now-current change,
// releasing each once its handler returns.
func (g *GM) replayFuture() {
	msgs := g.takeFuture(g.view.ID)
	if msgs == nil {
		return
	}
	for _, fm := range msgs {
		switch m := fm.msg.(type) {
		case *MsgViewChange:
			g.onViewChange(fm.from, m)
		case *MsgFlush:
			g.onFlush(fm.from, m)
		case *MsgConsensus:
			g.onConsensus(fm.from, m)
		}
		fm.msg.Release()
	}
	g.freeFuture(msgs)
}

// instance lazily starts the consensus instance of the current change in
// a free change record, resetting the instance the record held: its round
// states and window keep their storage. Participants are the old view's
// members in view order, so the round-1 coordinator is the sequencer.
func (g *GM) instance() *consensus.Instance {
	if g.inst != nil {
		return g.inst
	}
	if g.suspects == nil {
		g.suspects = g.rt.Suspects
	}
	c := g.freeChange()
	c.vc = g.view.ID
	c.inst.Reset(consensus.Config{
		Self:         g.rt.ID(),
		Participants: g.view.Members,
		FirstCoord:   g.view.Members[0],
		Suspects:     g.suspects,
	}, c)
	g.inst = &c.inst
	return g.inst
}

// freeChange returns a change record no instance still needs, adding one
// if there is none. A record is busy while inst or prevInst points into
// it, and while it is inside its own Decide upcall: replayFuture can
// decide the next change from there, and once the upcall returns the
// instance reads itself again to relay its decision. Two records suffice
// unless decisions nest.
func (g *GM) freeChange() *change {
	for _, c := range g.changes {
		if &c.inst != g.inst && &c.inst != g.prevInst && !c.deciding {
			return c
		}
	}
	c := &change{g: g}
	g.changes = append(g.changes, c)
	return c
}

// tryPropose proposes (P, U) once the flush of every non-suspected member
// has arrived and P is a majority of the view.
func (g *GM) tryPropose() {
	if g.state != stateChanging {
		return
	}
	self := g.rt.ID()
	majority := len(g.view.Members)/2 + 1
	// Survivors: members neither suspected nor targeted for exclusion.
	// If honoring the targets would destroy the primary partition (a
	// pathological detector demanding a majority's eviction), fall back
	// to suspicion only — progress beats spite.
	p := g.buildSurvivors(true)
	if len(p) < majority {
		p = g.buildSurvivors(false)
	}
	if len(p) < majority {
		return // primary-partition requirement: wait for trust edges
	}
	// The flush-completeness rule still counts targeted-but-trusted
	// members: they are alive, so their unstable messages must reach U.
	for _, m := range g.view.Members {
		if m != self && g.rt.Suspects(m) {
			continue
		}
		if _, ok := g.flushes[m]; !ok {
			return // still missing a flush we need
		}
	}
	inst := g.instance()
	if inst.HasEstimate() {
		// Start keeps the first value it is given: re-running it needs no
		// fresh snapshot of (P, U).
		inst.Restart()
		return
	}
	// Joiners are appended in PID order after the survivors.
	members := g.memberSlab.Carve(len(p)+len(g.pendingJoins), memberChunkMin, memberChunkMax)[:len(p)]
	copy(members, p)
	for j := range g.pendingJoins {
		if !g.view.Contains(j) {
			members = append(members, j)
		}
	}
	slices.Sort(members[len(p):])
	prop := &g.propSlab.Carve(1, proposalChunkMin, proposalChunkMax)[0]
	prop.Members, prop.Flush = members, g.mergeFlushes()
	inst.Start(prop)
}

// buildSurvivors lists, in view order and into reused scratch, the members
// neither suspected nor (if honorTargets) targeted for exclusion.
func (g *GM) buildSurvivors(honorTargets bool) []proto.PID {
	self := g.rt.ID()
	out := g.survivors[:0]
	for _, m := range g.view.Members {
		if m != self && g.rt.Suspects(m) {
			continue
		}
		if honorTargets && g.targets[m] {
			continue // targets bind even against ourselves
		}
		out = append(out, m)
	}
	g.survivors = out
	return out
}

// mergeFlushes unions all received flush sets, preferring entries whose
// sequence number is known, in the canonical delivery order: sequenced
// messages by sequence number, then unsequenced ones by ID. The union is
// formed in reused scratch and the result carved from the flush slab.
func (g *GM) mergeFlushes() []UnstableMsg {
	all := g.flushBuf[:0]
	for _, set := range g.flushes {
		all = append(all, set...)
	}
	// Sorted by ID with a sequenced copy first, the first of each run of
	// equal IDs is the entry to keep.
	slices.SortFunc(all, func(a, b UnstableMsg) int {
		if c := a.ID.Compare(b.ID); c != 0 {
			return c
		}
		return cmp.Compare(b.Seq, a.Seq)
	})
	merged := slices.CompactFunc(all, func(a, b UnstableMsg) bool { return a.ID == b.ID })
	slices.SortFunc(merged, func(a, b UnstableMsg) int {
		switch {
		case a.Seq >= 0 && b.Seq >= 0:
			return cmp.Compare(a.Seq, b.Seq)
		case a.Seq >= 0:
			return -1
		case b.Seq >= 0:
			return 1
		}
		return a.ID.Compare(b.ID)
	})
	out := g.flushSlab.Carve(len(merged), flushChunkMin, flushChunkMax)
	copy(out, merged)
	clear(all) // drop the bodies
	g.flushBuf = all[:0]
	return out
}

// onDecide applies the decided view change.
func (g *GM) onDecide(vc uint64, v consensus.Value) {
	if vc != g.view.ID || g.state != stateChanging {
		return // decision of a change we already applied
	}
	dec, ok := v.(*proposal)
	if !ok {
		panic(fmt.Sprintf("gm: decision of unexpected type %T", v))
	}
	self := g.rt.ID()
	oldView := g.view
	newView := View{ID: g.view.ID + 1, Members: dec.Members}

	// Retire the instance: keep it one generation for stragglers.
	g.prevInst = g.inst
	g.inst = nil
	clear(g.flushes)

	if !newView.Contains(self) {
		// Wrongly excluded (or leaving): miss this and all later views
		// until rejoin. The local delivered state freezes here.
		g.view = newView // remember the ID for join addressing
		g.state = stateExcluded
		g.app.Excluded(oldView)
		g.startJoinLoop()
		return
	}

	g.view = newView
	g.state = stateNormal
	g.app.InstallView(newView, dec.Flush)

	// Welcome new members: the first surviving old member sends each
	// joiner the view and its state snapshot.
	var welcomer proto.PID = -1
	for _, m := range newView.Members {
		if oldView.Contains(m) {
			welcomer = m
			break
		}
	}
	if welcomer == self {
		for _, m := range newView.Members {
			if oldView.Contains(m) {
				continue
			}
			g.welcome(m, newView, g.pendingJoins[m])
		}
	}
	for _, m := range newView.Members {
		delete(g.pendingJoins, m)
	}

	g.replayFuture()
	if g.state != stateNormal {
		return
	}
	// Residual suspicions or outstanding joins start the next change.
	for _, m := range g.view.Members {
		if m != self && g.rt.Suspects(m) {
			g.startChange()
			return
		}
	}
	if len(g.pendingJoins) > 0 {
		g.startChange()
	}
}

// welcome sends joiner the view v and the application's state snapshot
// for a process that has delivered after messages.
func (g *GM) welcome(joiner proto.PID, v View, after uint64) {
	m := g.welcomePool.Get()
	m.View, m.Payload = v, g.app.SyncPayload(after, m.Payload)
	g.rt.Send(joiner, m)
}

// onJoinReq records a join request and starts a view change for it. While
// a change is in progress the request is recorded and handled at install.
func (g *GM) onJoinReq(m *MsgJoinReq) {
	if g.state == stateExcluded {
		return
	}
	if g.view.Contains(m.P) {
		// The joiner is in the view but clearly does not know it: its
		// Welcome was lost with a crashed welcomer. Any member can repair
		// that by re-welcoming. Duplicates collapse at the joiner.
		if m.P != g.rt.ID() {
			g.welcome(m.P, g.view, m.After)
		}
		return
	}
	if g.rt.Suspects(m.P) {
		return // the mistake persists; the joiner will retry
	}
	g.pendingJoins[m.P] = m.After
	if g.state == stateNormal {
		g.startChange()
	}
}

// onWelcome completes a rejoin at the excluded process.
func (g *GM) onWelcome(m *MsgWelcome) {
	if g.state != stateExcluded || m.View.ID <= g.view.ID || !m.View.Contains(g.rt.ID()) {
		return
	}
	g.joinTimer.Cancel() // an excluded process has started its join loop
	g.view = m.View
	g.state = stateNormal
	for vc := range g.future {
		if vc < g.view.ID {
			g.dropFuture(vc)
		}
	}
	g.app.InstallSync(m.View, m.Payload)
	g.replayFuture()
}

// startJoinLoop multicasts join requests until welcomed back.
func (g *GM) startJoinLoop() {
	g.sendJoin()
	if g.joinTimer == nil {
		g.joinTimer = g.rt.NewAlarm(g.joinTick)
	}
	g.joinTimer.Arm(joinRetry)
}

// joinTick is the join loop's timer: retry, and re-arm.
func (g *GM) joinTick() {
	if g.state != stateExcluded {
		return
	}
	g.sendJoin()
	g.joinTimer.Arm(joinRetry)
}

func (g *GM) sendJoin() {
	m := g.joinPool.Get()
	m.P, m.After = g.rt.ID(), g.app.SyncRequest()
	g.rt.Multicast(m)
}

// change is the record a view change's consensus instance runs in, held
// by value beside the change number. The record is the instance's
// transport, addressed by pointer so handing it over does not allocate,
// and takes its decision (consensus.Decider).
type change struct {
	inst     consensus.Instance
	g        *GM
	vc       uint64
	deciding bool // inside the instance's Decide upcall
}

func (c *change) Send(to proto.PID, m consensus.Msg) {
	c.g.rt.Send(to, c.box(m))
}

func (c *change) Multicast(m consensus.Msg) {
	c.g.rt.Multicast(c.box(m))
}

// box draws a MsgConsensus wire box from the GM's pool.
func (c *change) box(m consensus.Msg) *MsgConsensus {
	b := c.g.consPool.Get()
	b.VC, b.M = c.vc, m
	return b
}

// Decide implements consensus.Decider.
func (c *change) Decide(v consensus.Value, _ proto.PID) {
	c.deciding = true
	c.g.onDecide(c.vc, v)
	c.deciding = false
}
