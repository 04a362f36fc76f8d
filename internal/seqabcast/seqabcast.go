// Package seqabcast implements the paper's "GM algorithm": a fixed-
// sequencer uniform atomic broadcast (after Birman, Schiper, Stephenson)
// that relies on the group membership service of internal/gm for
// reconfiguration after crashes and suspicions (§4.2).
//
// Normal operation within a view, with sequencer s = Members[0]:
//
//  1. A-broadcast(m): the sender multicasts m to all (MsgData).
//  2. The sequencer assigns m a sequence number and multicasts it
//     (MsgSeqNum); under load one MsgSeqNum carries many assignments —
//     the aggregation §4.2 calls essential for high throughput.
//  3. Non-sequencer processes that have both m and its sequence number
//     acknowledge to the sequencer (MsgAck, cumulative).
//  4. The sequencer waits for acks from a majority of the view, then
//     A-delivers and multicasts MsgDeliver; the others A-deliver on
//     receipt. This majority-ack step is what makes delivery uniform.
//
// The message pattern (data, seqnum, ack, deliver) is exactly the FD
// algorithm's pattern (data, propose, ack, decide) in failure-free runs —
// the property §4.4 builds the whole comparison on.
//
// The non-uniform variant of §8 is also implemented (Uniform: false):
// processes A-deliver as soon as they have a message and its sequence
// number, using only two multicasts and giving up uniformity.
//
// On view changes the gm.App callbacks flush unstable messages, reset the
// per-view sequencing state and re-sequence whatever was left unordered.
// Wrongly excluded processes queue their A-broadcasts and, after
// rejoining, catch up through the state-transfer snapshot (§4.3) before
// resuming.
package seqabcast

import (
	"fmt"
	"slices"

	"repro/internal/gm"
	"repro/internal/netmodel"
	"repro/internal/proto"
)

// Message types of the sequencer protocol. Sequence numbers are per-view,
// starting at 1; cross-view order is given by the view succession.
//
// Wire copies travel as pointer boxes drawn from the sending Process's
// pools, like rbcast.Msg (netmodel.Box), so the sequencer's traffic costs
// no per-message heap allocation once the pools are warm. Receivers copy
// what they need out of a box before returning.
type (
	// MsgData carries an A-broadcast message to everyone.
	MsgData struct {
		ID   proto.MsgID
		Body any
		netmodel.Box[MsgData]
	}
	// SeqPair assigns one sequence number.
	SeqPair struct {
		Seq uint64
		ID  proto.MsgID
	}
	// MsgSeqNum carries a batch of assignments from the sequencer. A
	// recycled box keeps its Pairs array for the next batch.
	MsgSeqNum struct {
		View       uint64
		Pairs      []SeqPair
		StableUpTo uint64
		netmodel.Box[MsgSeqNum]
	}
	// MsgAck tells the sequencer the sender has data and sequence number
	// for everything up to UpTo (cumulative).
	MsgAck struct {
		View uint64
		UpTo uint64
		netmodel.Box[MsgAck]
	}
	// MsgDeliver authorises A-delivery up to UpTo (uniform variant only).
	MsgDeliver struct {
		View       uint64
		UpTo       uint64
		StableUpTo uint64
		netmodel.Box[MsgDeliver]
	}
)

// dataBox draws an MsgData box.
func (p *Process) dataBox(id proto.MsgID, body any) *MsgData {
	m := p.dataPool.Get()
	m.ID, m.Body = id, body
	return m
}

// LogEntry is one A-delivered message, in delivery order; the delivered
// log is the state-transfer payload for rejoining processes.
type LogEntry struct {
	ID   proto.MsgID
	Body any
}

// syncState is the Welcome payload built by SyncPayload: the welcomer's
// deliveries from position Start on and, when its log no longer reaches
// back to the joiner's count, a snapshot of its delivered set that covers
// the rest. It travels as a *syncState and belongs to the Welcome box,
// which hands it back to SyncPayload for the next snapshot once the
// joiner is done with it.
type syncState struct {
	Start   uint64
	Entries []LogEntry
	Snap    *proto.TrackerSnapshot
}

// Config parameterises the GM algorithm at one process.
type Config struct {
	// Deliver is the A-deliver upcall, invoked in total order.
	Deliver func(id proto.MsgID, body any)
	// Uniform selects the uniform variant (majority acks before
	// delivery). The non-uniform §8 variant delivers on sequence-number
	// receipt. All processes must agree on this setting.
	Uniform bool
	// InitialMembers is the first view (nil means all processes). The
	// crash-steady scenarios pass the surviving processes only.
	InitialMembers []proto.PID
	// SeqBase is the initial value of the local A-broadcast counter. A
	// recovered incarnation passes the number of message IDs its previous
	// incarnations consumed, so new IDs never collide with pre-crash ones
	// (a collision would be silently swallowed by duplicate suppression).
	SeqBase uint64
	// OnView, if non-nil, observes every view this process enters:
	// the initial view, each installed view, and rejoin views.
	OnView func(v gm.View)
}

const (
	// logRetain bounds the delivered log kept for state transfer. A joiner
	// whose delivery count lies below the retained window gets the window
	// and a snapshot of the welcomer's delivered set, so the deliveries
	// before the window are a gap at the joiner; a recovered incarnation
	// rejoins from zero, so for crash-recovery the bound is on the whole
	// run. 16384 deliveries is 20 s at 800 msgs/s, beyond any figure's or
	// example's run before a Recover.
	logRetain = 16384
	// bufferLimit bounds protocol messages buffered while excluded (what
	// overflows is dropped): a memory cap, the size of gm's
	// maxExcludedBuffer.
	bufferLimit = 4096
)

// Process is the GM atomic broadcast endpoint at one process. It
// implements proto.Handler and gm.App.
type Process struct {
	rt  proto.Runtime
	cfg Config
	gm  *gm.GM

	bcastSeq uint64 // local A-broadcast counter (message IDs)

	// received holds the body of every message that is not yet known
	// stable: exactly the flush set. Undelivered messages are always
	// here; delivered ones stay until the sequencer announces stability.
	// It is the package's one map keyed by MsgID (docs/ARCHITECTURE.md,
	// "Dense tables"): at large n the set is sparse across origins, and
	// as a proto.IDTable every process carved a ring per origin it heard
	// from, which raised wide-topo's bytes per message by 15.6 %.
	received  map[proto.MsgID]any
	delivered *proto.IDTracker
	log       proto.Log[LogEntry] // positions are delivery counts

	// Per-view ordering state (reset on every install). assignments is
	// keyed by sequence number and holds only the numbers above
	// prunedUpTo: pruneStable drops each stable delivered one, so it stays
	// as small as the unstable window however long the view runs. It is
	// also the only record of which number an id got: Unstable walks it
	// to fill in the flush set's numbers, so no map from id to number is
	// kept beside it.
	assignments proto.Window[assignment]
	nextDeliver uint64 // next sequence number to A-deliver
	haveUpTo    uint64 // contiguous data+seqnum prefix present locally
	stableUpTo  uint64 // sequencer-announced all-ack prefix
	prunedUpTo  uint64 // stable delivered prefix already pruned

	// Sequencer-only state.
	nextAssign uint64
	toSequence []proto.MsgID
	batchOpen  bool
	batchMax   uint64
	ackedUpTo  []uint64 // indexed by PID
	ackBuf     []uint64 // recomputeDeliverable's reused sort buffer
	announced  uint64   // last MsgDeliver UpTo sent

	// Exclusion state. Buffered boxes are retained until replayed or
	// dropped.
	queued   []queuedBroadcast
	buffered []bufferedPayload
	joinIDs  []proto.MsgID // InstallSync's reused scratch

	// The slab the flush snapshots are carved from: every member that
	// receives one keeps it.
	flushSlab proto.Slab[gm.UnstableMsg]

	// Pools of the wire boxes, one per message type.
	dataPool    netmodel.Pool[MsgData]
	seqNumPool  netmodel.Pool[MsgSeqNum]
	ackPool     netmodel.Pool[MsgAck]
	deliverPool netmodel.Pool[MsgDeliver]
}

// assignment is one slot of the assignments window: the id sequenced at
// the slot's number, if ok. advanceHave copies the id's body from received
// into body when the slot joins the haveUpTo prefix, so deliverUpTo reads
// it there instead of looking the id up again.
type assignment struct {
	id   proto.MsgID
	ok   bool
	body any
}

type queuedBroadcast struct {
	id   proto.MsgID
	body any
}

type bufferedPayload struct {
	from    proto.PID
	payload netmodel.Pooled // *MsgSeqNum, *MsgAck or *MsgDeliver, retained
}

// Chunk sizes of the flush slab: small first, doubling up to the largest.
const flushChunkMin, flushChunkMax = 16, 1024

var (
	_ proto.Handler = (*Process)(nil)
	_ gm.App        = (*Process)(nil)
)

// New creates the GM algorithm endpoint for the process behind rt.
func New(rt proto.Runtime, cfg Config) *Process {
	p := &Process{
		rt:        rt,
		received:  make(map[proto.MsgID]any),
		delivered: proto.NewIDTracker(),
		ackedUpTo: make([]uint64, rt.N()),
		dataPool:  netmodel.NewPool(func(m *MsgData) { m.Body = nil }),
		gm:        gm.New(rt),
	}
	p.gm.SetApp(p)
	p.Reset(cfg)
	return p
}

// Reset returns the endpoint to the state New(rt, cfg) leaves it in, on
// its own runtime and membership service (reset too): nothing broadcast,
// received, delivered or queued, not started, every buffered box
// released. Its maps, tables, log, box pools and flush slab keep their
// storage; the slab carves on where it stopped, so no flush of the
// previous run is overwritten. The runtime's timers of the previous run
// must not fire afterwards (the engine is reset alongside).
func (p *Process) Reset(cfg Config) {
	if cfg.Deliver == nil {
		panic("seqabcast: nil Deliver")
	}
	clear(p.received)
	p.delivered.Reset()
	p.log.Reset(0)
	p.log.Retain = logRetain
	clear(p.toSequence)
	clear(p.queued)
	for _, bp := range p.buffered {
		bp.payload.Release()
	}
	clear(p.buffered)
	p.gm.Reset()
	*p = Process{
		rt:          p.rt,
		cfg:         cfg,
		gm:          p.gm,
		bcastSeq:    cfg.SeqBase,
		received:    p.received,
		delivered:   p.delivered,
		log:         p.log,
		assignments: p.assignments,
		toSequence:  p.toSequence,
		ackedUpTo:   p.ackedUpTo,
		ackBuf:      p.ackBuf[:0],
		queued:      p.queued[:0],
		buffered:    p.buffered[:0],
		joinIDs:     p.joinIDs[:0],
		flushSlab:   p.flushSlab,
		dataPool:    p.dataPool,
		seqNumPool:  p.seqNumPool,
		ackPool:     p.ackPool,
		deliverPool: p.deliverPool,
	}
	p.resetViewState()
}

// View exposes the current view (diagnostics and tests).
func (p *Process) View() gm.View { return p.gm.View() }

// IsSequencer reports whether this process sequences the current view.
func (p *Process) IsSequencer() bool {
	return p.gm.IsMember() && p.gm.View().Primary() == p.rt.ID()
}

// IsExcluded reports whether the process is currently outside the view.
func (p *Process) IsExcluded() bool { return !p.gm.IsMember() }

// DeliveredCount returns the number of messages A-delivered locally.
func (p *Process) DeliveredCount() uint64 { return p.log.Next() }

// Init implements proto.Handler.
func (p *Process) Init() {
	members := p.cfg.InitialMembers
	if members == nil {
		members = make([]proto.PID, p.rt.N())
		for i := range members {
			members[i] = proto.PID(i)
		}
	}
	v := gm.View{ID: 1, Members: members}
	p.gm.Start(v)
	if p.cfg.OnView != nil && p.gm.IsMember() {
		p.cfg.OnView(v)
	}
}

// ABroadcast atomically broadcasts body and returns its message ID. An
// excluded process queues the broadcast until it rejoins — the cost §7's
// suspicion-steady scenario charges to the GM algorithm.
func (p *Process) ABroadcast(body any) proto.MsgID {
	p.bcastSeq++
	id := proto.MsgID{Origin: p.rt.ID(), Seq: p.bcastSeq}
	if p.IsExcluded() {
		p.queued = append(p.queued, queuedBroadcast{id: id, body: body})
		return id
	}
	p.rt.Multicast(p.dataBox(id, body))
	return id
}

// OnMessage implements proto.Handler.
func (p *Process) OnMessage(from proto.PID, payload any) {
	if p.gm.OnMessage(from, payload) {
		return
	}
	switch m := payload.(type) {
	case *MsgData:
		p.onData(m.ID, m.Body)
	case *MsgSeqNum:
		p.onSeqNum(from, m)
	case *MsgAck:
		p.onAck(from, m)
	case *MsgDeliver:
		p.onDeliver(from, m)
	default:
		panic(fmt.Sprintf("seqabcast: unknown payload %T", payload))
	}
}

// OnSuspect implements proto.Handler: suspicion drives the membership
// service only — the sequencer protocol itself never consults the failure
// detector (the defining difference from the FD algorithm).
func (p *Process) OnSuspect(q proto.PID) { p.gm.OnSuspect(q) }

// OnTrust implements proto.Handler.
func (p *Process) OnTrust(q proto.PID) { p.gm.OnTrust(q) }

// onData stores a message body and, at the sequencer, queues it for the
// next assignment batch.
func (p *Process) onData(id proto.MsgID, body any) {
	if p.delivered.Seen(id) {
		return
	}
	if _, dup := p.received[id]; dup {
		return
	}
	p.received[id] = body
	if p.IsSequencer() && p.gm.Normal() {
		p.toSequence = append(p.toSequence, id)
		p.trySequence()
	}
}

// trySequence opens the next assignment batch when the previous one has
// completed — mirroring the FD algorithm's one-consensus-at-a-time
// aggregation, which is what makes the two message patterns identical.
func (p *Process) trySequence() {
	if p.batchOpen || len(p.toSequence) == 0 || !p.IsSequencer() || !p.gm.Normal() {
		return
	}
	m := p.seqNumPool.Get()
	m.Pairs = m.Pairs[:0]
	for _, id := range p.toSequence {
		if p.delivered.Seen(id) {
			continue
		}
		m.Pairs = append(m.Pairs, SeqPair{Seq: p.nextAssign, ID: id})
		p.nextAssign++
	}
	p.toSequence = p.toSequence[:0]
	if len(m.Pairs) == 0 {
		p.seqNumPool.Put(m)
		return
	}
	if p.cfg.Uniform {
		p.batchOpen = true
		p.batchMax = m.Pairs[len(m.Pairs)-1].Seq
	}
	m.View, m.StableUpTo = p.gm.View().ID, p.stability()
	p.rt.Multicast(m)
	// Our own copy arrives through local delivery and advances haveUpTo.
}

// onSeqNum records assignments and acknowledges the new contiguous prefix.
func (p *Process) onSeqNum(from proto.PID, m *MsgSeqNum) {
	if !p.acceptProtocol(from, m.View, m) {
		return
	}
	for _, pair := range m.Pairs {
		a := p.assignments.At(pair.Seq) // a body advanceHave kept stays
		a.id, a.ok = pair.ID, true
	}
	p.noteStable(m.StableUpTo)
	p.advanceHave()
}

// advanceHave pushes the contiguous data+seqnum prefix forward, keeping
// each body it finds in its slot, and drives the variant-specific delivery
// logic.
func (p *Process) advanceHave() {
	advanced := false
	for {
		a := p.assignments.Get(p.haveUpTo + 1)
		if a == nil || !a.ok {
			break
		}
		body, have := p.received[a.id]
		if !have && !p.delivered.Seen(a.id) {
			break
		}
		a.body = body
		p.haveUpTo++
		advanced = true
	}
	if !advanced {
		return
	}
	if !p.cfg.Uniform {
		// Non-uniform variant: deliver as soon as ordered.
		p.deliverUpTo(p.haveUpTo)
		return
	}
	if p.IsSequencer() {
		p.recomputeDeliverable()
	} else {
		m := p.ackPool.Get()
		m.View, m.UpTo = p.gm.View().ID, p.haveUpTo
		p.rt.Send(p.gm.View().Primary(), m)
	}
}

// onAck updates the sequencer's ack table.
func (p *Process) onAck(from proto.PID, m *MsgAck) {
	if !p.acceptProtocol(from, m.View, m) {
		return
	}
	if !p.IsSequencer() {
		return
	}
	if m.UpTo > p.ackedUpTo[from] {
		p.ackedUpTo[from] = m.UpTo
	}
	p.recomputeDeliverable()
}

// recomputeDeliverable delivers and announces the largest prefix
// acknowledged by a majority of the view (sequencer included).
func (p *Process) recomputeDeliverable() {
	members := p.gm.View().Members
	acks := p.ackBuf[:0]
	ahead := 0 // acks beyond what is announced
	for _, m := range members {
		a := p.haveUpTo
		if m != p.rt.ID() {
			a = p.ackedUpTo[m]
		}
		if a > p.announced {
			ahead++
		}
		acks = append(acks, a)
	}
	p.ackBuf = acks
	majority := len(members)/2 + 1
	// The majority-th largest ack passes announced exactly when a majority
	// of the acks do: without one, the sort cannot advance delivery.
	if ahead < majority {
		return
	}
	slices.Sort(acks)
	deliverable := acks[len(acks)-majority] // the majority-th largest
	p.announced = deliverable
	p.deliverUpTo(deliverable)
	m := p.deliverPool.Get()
	m.View, m.UpTo, m.StableUpTo = p.gm.View().ID, deliverable, p.stability()
	p.rt.Multicast(m)
	if p.batchOpen && p.batchMax <= deliverable {
		p.batchOpen = false
		p.trySequence()
	}
}

// nonUniformStabilityLag is how far stability trails delivery in the
// non-uniform variant. Without acks a process cannot know what others
// received, so recently delivered messages must stay in the flush set
// (with their sequence numbers) long enough to cover any in-flight view
// change; dropping them immediately loses ordering knowledge and lets two
// never-excluded members deliver in different orders. A view change lasts
// a few tens of milliseconds — far fewer than this many messages even at
// the wire's capacity.
const nonUniformStabilityLag = 256

// stability returns the all-ack prefix: every member has data and
// sequence number for everything up to it. Stable messages can leave the
// flush set — with full seqnum knowledge preserved for anything a member
// might still be missing, which is what keeps the total order consistent
// across view changes.
func (p *Process) stability() uint64 {
	if !p.cfg.Uniform {
		if p.haveUpTo > nonUniformStabilityLag {
			return p.haveUpTo - nonUniformStabilityLag
		}
		return 0
	}
	stable := p.haveUpTo
	for _, m := range p.gm.View().Members {
		if m == p.rt.ID() {
			continue
		}
		if a := p.ackedUpTo[m]; a < stable {
			stable = a
		}
	}
	return stable
}

// onDeliver applies a delivery announcement.
func (p *Process) onDeliver(from proto.PID, m *MsgDeliver) {
	if !p.acceptProtocol(from, m.View, m) {
		return
	}
	p.deliverUpTo(m.UpTo)
	p.noteStable(m.StableUpTo)
}

// acceptProtocol filters sequencing messages: only the current view in
// normal state is processed; an excluded process retains the box
// OnMessage received and buffers it for replay after its state transfer.
func (p *Process) acceptProtocol(from proto.PID, view uint64, payload netmodel.Pooled) bool {
	if p.IsExcluded() {
		if len(p.buffered) < bufferLimit {
			payload.Retain(1)
			p.buffered = append(p.buffered, bufferedPayload{from: from, payload: payload})
		}
		return false
	}
	if view > p.gm.View().ID {
		// Sequencing traffic of a view we never installed: evidence the
		// group reconfigured without us (we were partitioned away). The
		// membership service's staleness probe turns persistent evidence
		// into a rejoin.
		p.gm.NoteHigherView(view)
	}
	return p.gm.Normal() && view == p.gm.View().ID
}

// deliverUpTo A-delivers sequenced messages through seq in order. Up to
// haveUpTo the bodies wait in their slots; beyond it (a uniform delivery
// announcement can run ahead of this process's data) they are looked up.
func (p *Process) deliverUpTo(seq uint64) {
	for p.nextDeliver <= seq {
		a := p.assignments.Get(p.nextDeliver)
		if a == nil || !a.ok {
			return // gap: wait for the assignment (cannot happen in FIFO order)
		}
		id, body := a.id, a.body
		if p.nextDeliver > p.haveUpTo {
			var have bool
			if body, have = p.received[id]; !have && !p.delivered.Seen(id) {
				return // data still missing; resume when it arrives
			}
		}
		p.deliverOne(id, body)
		p.nextDeliver++
	}
	p.pruneStable()
}

// deliverOne performs one A-delivery with duplicate suppression.
func (p *Process) deliverOne(id proto.MsgID, body any) {
	if !p.delivered.Add(id) {
		return
	}
	p.log.Append(LogEntry{ID: id, Body: body})
	p.cfg.Deliver(id, body)
}

// noteStable adopts the sequencer's stability announcement and prunes.
func (p *Process) noteStable(s uint64) {
	if s > p.stableUpTo {
		p.stableUpTo = s
		p.pruneStable()
	}
}

// pruneStable drops bodies of delivered messages that every member is
// known to have: they can never appear in a flush again. Within a view a
// message of the flush set is delivered iff its sequence number is below
// nextDeliver, so those are the assignments up to min(stableUpTo,
// nextDeliver-1), and the walk resumes where the last one stopped. Their
// slots go too: neither advanceHave nor deliverUpTo looks below the
// stable prefix again, and re-sequencing skips delivered IDs.
func (p *Process) pruneStable() {
	upTo := min(p.stableUpTo, p.nextDeliver-1)
	if upTo <= p.prunedUpTo {
		return
	}
	for seq := p.prunedUpTo + 1; seq <= upTo; seq++ {
		if a := p.assignments.Get(seq); a != nil && a.ok {
			delete(p.received, a.id)
		}
	}
	p.assignments.Advance(upTo + 1)
	p.prunedUpTo = upTo
}

// resetViewState clears all per-view ordering state.
func (p *Process) resetViewState() {
	p.assignments.Reset()
	p.nextDeliver = 1
	p.haveUpTo = 0
	p.stableUpTo = 0
	p.prunedUpTo = 0
	p.nextAssign = 1
	p.toSequence = p.toSequence[:0]
	p.batchOpen = false
	p.batchMax = 0
	clear(p.ackedUpTo)
	p.announced = 0
}

// --- gm.App implementation ---

// Unstable implements gm.App: the flush set is exactly the received map,
// snapshot into storage carved from the flush slab, in ID order. The
// sequence numbers come from a walk of the assignments window, which
// holds every number above the pruned prefix: a flush entry whose id has
// a slot gets that slot's number, every other one -1. It runs only at a
// view change; gm sorts the flushes it merges, so the order is free.
func (p *Process) Unstable() []gm.UnstableMsg {
	out := p.flushSlab.Carve(len(p.received), flushChunkMin, flushChunkMax)[:0]
	for id, body := range p.received {
		out = append(out, gm.UnstableMsg{ID: id, Seq: -1, Body: body})
	}
	slices.SortFunc(out, func(a, b gm.UnstableMsg) int { return a.ID.Compare(b.ID) })
	for seq := p.assignments.Lo(); seq < p.assignments.Hi(); seq++ {
		a := p.assignments.Get(seq)
		if !a.ok {
			continue
		}
		if i, found := slices.BinarySearchFunc(out, a.id, func(m gm.UnstableMsg, id proto.MsgID) int { return m.ID.Compare(id) }); found {
			out[i].Seq = int64(seq)
		}
	}
	return out
}

// InstallView implements gm.App: deliver the decided flush remainder and
// start the new view with fresh sequencing state.
func (p *Process) InstallView(v gm.View, flush []gm.UnstableMsg) {
	for _, um := range flush {
		p.deliverOne(um.ID, um.Body)
	}
	p.startNewView(v)
	if p.cfg.OnView != nil {
		p.cfg.OnView(v)
	}
}

// startNewView resets ordering state and re-sequences leftovers.
func (p *Process) startNewView(v gm.View) {
	p.resetViewState()
	// Everything delivered up to the install is stable by view synchrony:
	// only undelivered messages stay in the flush set.
	for id := range p.received {
		if p.delivered.Seen(id) {
			delete(p.received, id)
		}
	}
	if v.Primary() == p.rt.ID() {
		// Undelivered messages are re-sequenced in the new view, in
		// canonical ID order (all members compute the same leftovers, but
		// only the sequencer acts).
		for id := range p.received {
			p.toSequence = append(p.toSequence, id)
		}
		proto.SortMsgIDs(p.toSequence)
		p.trySequence()
	}
}

// Excluded implements gm.App.
func (p *Process) Excluded(gm.View) {
	// Frozen: ABroadcast queues, protocol messages buffer, data still
	// accumulates in received. Everything resolves at InstallSync.
}

// SyncRequest implements gm.App.
func (p *Process) SyncRequest() uint64 { return p.DeliveredCount() }

// SyncPayload implements gm.App: the missing suffix of the delivered log,
// built in reuse's entries when the Welcome box had a payload already.
// When the log no longer reaches back to afterCount, the payload carries
// every delivery the log holds and the snapshot of the delivered set that
// covers the ones before it.
func (p *Process) SyncPayload(afterCount uint64, reuse any) any {
	st, _ := reuse.(*syncState)
	if st == nil {
		st = new(syncState)
	}
	clear(st.Entries) // drop the last snapshot's bodies
	start, entries, gap := p.log.Suffix(afterCount)
	st.Start, st.Entries, st.Snap = start, append(st.Entries[:0], entries...), nil
	if gap {
		st.Snap = p.delivered.Snapshot()
	}
	return st
}

// InstallSync implements gm.App: apply the state snapshot, rejoin the
// view, replay buffered traffic and release queued broadcasts.
func (p *Process) InstallSync(v gm.View, payload any) {
	st, ok := payload.(*syncState)
	if !ok {
		panic(fmt.Sprintf("seqabcast: sync payload of unexpected type %T", payload))
	}
	for _, e := range st.Entries {
		p.deliverOne(e.ID, e.Body)
	}
	if st.Snap != nil {
		// The welcomer's deliveries before its window are a gap here: they
		// count as delivered, and its window becomes this process's log.
		p.delivered.Merge(st.Snap)
		p.log.Adopt(st.Start, st.Entries)
	}
	p.startNewView(v)
	if p.cfg.OnView != nil {
		p.cfg.OnView(v)
	}
	// A member neither buffers nor queues, so neither walk below can add
	// to the list it walks.
	for _, bp := range p.buffered {
		switch m := bp.payload.(type) {
		case *MsgSeqNum:
			if m.View == v.ID {
				p.onSeqNum(bp.from, m)
			}
		case *MsgDeliver:
			if m.View == v.ID {
				p.onDeliver(bp.from, m)
			}
		case *MsgAck:
			if m.View == v.ID {
				p.onAck(bp.from, m)
			}
		}
		bp.payload.Release()
	}
	clear(p.buffered)
	p.buffered = p.buffered[:0]
	for _, qb := range p.queued {
		p.rt.Multicast(p.dataBox(qb.id, qb.body))
	}
	clear(p.queued)
	p.queued = p.queued[:0]
	// Messages this process broadcast in its previous membership that the
	// group never sequenced — typically lost to the partition that got us
	// excluded — are re-announced in ID order, so rejoining also recovers
	// them. Receivers absorb duplicates.
	ids := p.joinIDs[:0]
	for id := range p.received {
		if id.Origin == p.rt.ID() && !p.delivered.Seen(id) {
			ids = append(ids, id)
		}
	}
	proto.SortMsgIDs(ids)
	for _, id := range ids {
		p.rt.Multicast(p.dataBox(id, p.received[id]))
	}
	p.joinIDs = ids[:0]
}
