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
	"repro/internal/proto"
)

// View is one membership epoch. Members are ordered: survivors keep their
// relative order across changes and joiners are appended, so Members[0] —
// the paper's sequencer — only changes when it is excluded.
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

// clone returns a deep copy; views are shared with the application.
func (v View) clone() View {
	out := View{ID: v.ID, Members: make([]proto.PID, len(v.Members))}
	copy(out.Members, v.Members)
	return out
}

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
	// Unstable snapshots the local flush set.
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
	// has delivered afterCount messages.
	SyncPayload(afterCount uint64) any
	// InstallSync applies a state snapshot and enters view v — the
	// joiner-side counterpart of InstallView.
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
type (
	// MsgViewChange announces that a view change for the view with the
	// given ID has started. Targets lists the suspected processes whose
	// exclusion the initiator demands: every participant removes them
	// from its membership proposal, so a wrong suspicion excludes the
	// suspected process just like a real crash would (§4.4: "the
	// algorithms react to a wrong suspicion the same way as they react
	// to a real crash").
	MsgViewChange struct {
		VC      uint64
		Targets []proto.PID
	}
	// MsgFlush carries a member's unstable messages for a view change.
	MsgFlush struct {
		VC       uint64
		Unstable []UnstableMsg
	}
	// MsgConsensus wraps a consensus message of view change VC.
	MsgConsensus struct {
		VC uint64
		M  consensus.Msg
	}
	// MsgJoinReq is multicast by an excluded process asking back in.
	MsgJoinReq struct {
		P     proto.PID
		After uint64 // messages already delivered (state-transfer base)
	}
	// MsgWelcome hands a joiner its new view plus the state snapshot.
	MsgWelcome struct {
		View    View
		Payload any
	}
)

// proposal is the consensus value of a view change.
type proposal struct {
	Members []proto.PID
	Flush   []UnstableMsg
}

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

	// Buffered messages for future view changes (we have not installed
	// the views that define their participant sets yet).
	future map[uint64][]futureMsg

	joinTimer proto.Timer
	// Staleness probe: armed while evidence of views beyond ours exists
	// (buffered future membership traffic, or higher-view protocol
	// messages reported through NoteHigherView), it self-excludes a
	// member the group reconfigured around (partition).
	staleTimer  proto.Timer
	staleViewID uint64
	maxSeenView uint64

	// Scratch reused by every tryPropose and mergeFlushes call.
	survivors []proto.PID
	flushBuf  []UnstableMsg
}

type futureMsg struct {
	from    proto.PID
	payload any
}

// New creates the membership service. SetApp must be called before Start.
func New(rt proto.Runtime) *GM {
	return &GM{
		rt:           rt,
		flushes:      make(map[proto.PID][]UnstableMsg),
		targets:      make(map[proto.PID]bool),
		pendingJoins: make(map[proto.PID]uint64),
		future:       make(map[uint64][]futureMsg),
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
	g.view = initial.clone()
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
	case MsgViewChange:
		g.onViewChange(from, m)
	case MsgFlush:
		g.onFlush(from, m)
	case MsgConsensus:
		g.onConsensus(from, m)
	case MsgJoinReq:
		g.onJoinReq(m)
	case MsgWelcome:
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
	g.rt.Multicast(MsgViewChange{VC: g.view.ID, Targets: targets})
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
	g.rt.Multicast(MsgFlush{VC: g.view.ID, Unstable: g.app.Unstable()})
}

func (g *GM) onViewChange(from proto.PID, m MsgViewChange) {
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

func (g *GM) onFlush(from proto.PID, m MsgFlush) {
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

func (g *GM) onConsensus(from proto.PID, m MsgConsensus) {
	switch {
	case g.state == stateExcluded:
		g.bufferWhileExcluded(m.VC, from, m)
		return
	case m.VC < g.view.ID:
		// A straggler's message for an old change: the retained previous
		// instance answers with its decision.
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

func (g *GM) bufferFuture(vc uint64, from proto.PID, payload any) {
	g.future[vc] = append(g.future[vc], futureMsg{from: from, payload: payload})
	if g.state != stateExcluded {
		g.armStaleProbe()
	}
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
	if g.staleTimer != nil {
		return
	}
	g.staleViewID = g.view.ID
	g.staleTimer = g.rt.After(staleTimeout, g.staleCheck)
}

// staleCheck fires one staleTimeout after future-view traffic appeared.
// If a view was installed meanwhile, the member is making progress and
// the probe re-arms; if not — a full timeout behind the group with no
// install — the group demonstrably reconfigured without us while we could
// not communicate, so conclude exclusion and rejoin.
func (g *GM) staleCheck() {
	g.staleTimer = nil
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
func (g *GM) bufferWhileExcluded(vc uint64, from proto.PID, payload any) {
	if vc < g.view.ID {
		return
	}
	total := 0
	for _, msgs := range g.future {
		total += len(msgs)
	}
	if total >= maxExcludedBuffer {
		return
	}
	g.bufferFuture(vc, from, payload)
}

// replayFuture feeds back messages buffered for the now-current change.
func (g *GM) replayFuture() {
	msgs, ok := g.future[g.view.ID]
	if !ok {
		return
	}
	delete(g.future, g.view.ID)
	for _, fm := range msgs {
		switch m := fm.payload.(type) {
		case MsgViewChange:
			g.onViewChange(fm.from, m)
		case MsgFlush:
			g.onFlush(fm.from, m)
		case MsgConsensus:
			g.onConsensus(fm.from, m)
		}
	}
}

// instance lazily creates the consensus instance of the current change.
// Participants are the old view's members in view order, so the round-1
// coordinator is the sequencer.
func (g *GM) instance() *consensus.Instance {
	if g.inst != nil {
		return g.inst
	}
	vc := g.view.ID
	g.inst = consensus.New(consensus.Config{
		Self:         g.rt.ID(),
		Participants: g.view.Members,
		FirstCoord:   g.view.Members[0],
		Suspects:     g.rt.Suspects,
		Decide:       func(v consensus.Value, _ proto.PID) { g.onDecide(vc, v) },
	}, gmTransport{g: g, vc: vc})
	return g.inst
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
	members := make([]proto.PID, len(p), len(p)+len(g.pendingJoins))
	copy(members, p)
	for j := range g.pendingJoins {
		if !g.view.Contains(j) {
			members = append(members, j)
		}
	}
	slices.Sort(members[len(p):])
	inst.Start(proposal{Members: members, Flush: g.mergeFlushes()})
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
// formed in reused scratch; only the returned proposal value is fresh.
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
	out := slices.Clone(merged)
	clear(all) // drop the bodies
	g.flushBuf = all[:0]
	return out
}

// onDecide applies the decided view change.
func (g *GM) onDecide(vc uint64, v consensus.Value) {
	if vc != g.view.ID || g.state != stateChanging {
		return // decision of a change we already applied
	}
	dec, ok := v.(proposal)
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
		g.view = newView.clone() // remember the ID for join addressing
		g.state = stateExcluded
		g.app.Excluded(oldView)
		g.startJoinLoop()
		return
	}

	g.view = newView.clone()
	g.state = stateNormal
	g.app.InstallView(newView.clone(), dec.Flush)

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
			after := g.pendingJoins[m]
			g.rt.Send(m, MsgWelcome{View: newView.clone(), Payload: g.app.SyncPayload(after)})
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

// onJoinReq records a join request and starts a view change for it. While
// a change is in progress the request is recorded and handled at install.
func (g *GM) onJoinReq(m MsgJoinReq) {
	if g.state == stateExcluded {
		return
	}
	if g.view.Contains(m.P) {
		// The joiner is in the view but clearly does not know it: its
		// Welcome was lost with a crashed welcomer. Any member can repair
		// that by re-welcoming. Duplicates collapse at the joiner.
		if m.P != g.rt.ID() {
			g.rt.Send(m.P, MsgWelcome{View: g.view.clone(), Payload: g.app.SyncPayload(m.After)})
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
func (g *GM) onWelcome(m MsgWelcome) {
	if g.state != stateExcluded || m.View.ID <= g.view.ID || !m.View.Contains(g.rt.ID()) {
		return
	}
	if g.joinTimer != nil {
		g.joinTimer.Cancel()
		g.joinTimer = nil
	}
	g.view = m.View.clone()
	g.state = stateNormal
	for vc := range g.future {
		if vc < g.view.ID {
			delete(g.future, vc)
		}
	}
	g.app.InstallSync(m.View.clone(), m.Payload)
	g.replayFuture()
}

// startJoinLoop multicasts join requests until welcomed back.
func (g *GM) startJoinLoop() {
	g.sendJoin()
	var tick func()
	tick = func() {
		if g.state != stateExcluded {
			return
		}
		g.sendJoin()
		g.joinTimer = g.rt.After(joinRetry, tick)
	}
	g.joinTimer = g.rt.After(joinRetry, tick)
}

func (g *GM) sendJoin() {
	g.rt.Multicast(MsgJoinReq{P: g.rt.ID(), After: g.app.SyncRequest()})
}

// gmTransport adapts the runtime to the view change's consensus instance.
type gmTransport struct {
	g  *GM
	vc uint64
}

func (t gmTransport) Send(to proto.PID, m consensus.Msg) {
	t.g.rt.Send(to, MsgConsensus{VC: t.vc, M: m})
}

func (t gmTransport) Multicast(m consensus.Msg) {
	t.g.rt.Multicast(MsgConsensus{VC: t.vc, M: m})
}
