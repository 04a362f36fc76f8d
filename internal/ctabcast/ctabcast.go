// Package ctabcast implements the Chandra–Toueg uniform atomic broadcast
// algorithm — the paper's "FD algorithm" (§4.1). It uses unreliable
// failure detectors directly:
//
//   - A-broadcast(m) reliably broadcasts m to all processes (one multicast
//     in the common case, see internal/rbcast).
//   - Received messages are buffered until their delivery position is
//     decided by a sequence of consensus instances #1, #2, ...; the value
//     of each instance is a set of message IDs.
//   - The messages decided by instance k are A-delivered before those of
//     instance k+1, and within a batch in the deterministic ID order.
//
// Aggregation falls out naturally: while instance k runs, arriving
// messages accumulate and instance k+1 orders them all at once — the
// mechanism that lets the algorithm "tolerate high load" (§4).
//
// The package also implements the crash-steady optimisation of §7: each
// decision carries its proposer, and subsequent instances rotate their
// coordinator order to start at that proposer, so crashed processes
// eventually stop being round-1 coordinators at no extra message cost.
package ctabcast

import (
	"fmt"
	"time"

	"repro/internal/consensus"
	"repro/internal/netmodel"
	"repro/internal/proto"
	"repro/internal/rbcast"
)

// consMsg tags a consensus message with its instance number. Wire copies
// travel as *consMsg boxes drawn from the sending Process's pool
// (netmodel.Box), the message held by value: receivers copy K and M out
// before returning.
type consMsg struct {
	K uint64
	M consensus.Msg
	netmodel.Box[consMsg]
}

// String names the wrapped message for traces: "MsgPropose[k=3]".
func (m consMsg) String() string {
	return fmt.Sprintf("%v[k=%d]", m.M.Kind, m.K)
}

// batch is the FD algorithm's consensus value: a proposed set of message
// IDs in canonical order. Proposals are handed to consensus as *batch, a
// pointer, which a consensus.Value holds without allocating.
type batch struct{ ids []proto.MsgID }

// Chunk sizes of the proposal slabs, and of the logged bodies' slabs
// beside them: small first, so a cold process that proposes little pays
// little, doubling up to the largest.
const (
	idChunkMin, idChunkMax       = 16, 4096
	batchChunkMin, batchChunkMax = 4, 256
)

// Config parameterises the FD algorithm at one process.
type Config struct {
	// Deliver is the A-deliver upcall, invoked in total order.
	Deliver func(id proto.MsgID, body any)
	// Renumber enables the coordinator renumbering optimisation: the
	// proposer of decision k coordinates round 1 of instance k+1. All
	// processes must agree on this setting.
	Renumber bool
}

// instanceWindow bounds how many finished consensus instances are
// retained for decision forwarding to stragglers: 64 covers the lag a
// wrong suspicion or a lost message causes while the instance table stays
// a handful of recycled slots; wider gaps are the decision log's job
// (catchup.go).
const instanceWindow = 64

// Process is the FD atomic broadcast endpoint at one process. It
// implements proto.Handler.
type Process struct {
	rt  proto.Runtime
	cfg Config
	rb  *rbcast.Broadcaster

	all []proto.PID // all process IDs, the fixed participant set

	// msgs holds every message this process has a body for and has not
	// A-delivered yet; npending counts those among them that still await
	// an order (msgEntry.pending).
	msgs       proto.IDTable[msgEntry]
	npending   int
	adelivered proto.IDTracker

	// insts is the state of the retained consensus instances by instance
	// number; its Lo is the oldest retained instance, and messages for
	// anything below it are dropped.
	insts proto.Window[instEntry]
	// buffered holds consensus messages for instances that cannot be
	// built yet. The one map of the process: it is keyed only by the few
	// instances ahead of the frontier that a peer ran first under
	// renumbering — sparse, and touched on no per-message path.
	buffered    map[uint64][]bufferedMsg
	nextDeliver uint64    // lowest instance whose decision is still undelivered
	firstCoord  proto.PID // round-1 coordinator of instance nextDeliver

	// Decision log and catch-up state (see catchup.go). The log's
	// positions are instance numbers, and log.Next() == nextDeliver always
	// holds. Its Retain is the logRetain constant; only tests shrink it.
	log         proto.Log[logEntry]
	maxSeen     uint64        // highest instance seen in peer consensus traffic
	maxSeenFrom proto.PID     // sender of that traffic: the most advanced peer known
	cuRetry     *proto.Alarm  // retry timer: an exchange is in progress exactly while it is pending
	cuTarget    proto.PID     // peer currently asked
	cuBackoff   time.Duration // next retry delay
	cuBlind     int           // evidence-free retries left (forced exchanges only)
	rxCount     uint64        // messages received, ever: the probe's idleness signal
	probe       *proto.Alarm  // Resume's probe
	probeRx     uint64        // rxCount when the probe was (re)armed
	probeIdle   int           // consecutive probes that saw zero traffic

	// Free lists, slabs and cached callbacks: the high-rate allocation
	// sites of the hot path, each reused across instances and messages.
	boxes       netmodel.Pool[consMsg]  // consMsg wire boxes
	idSlab      proto.Slab[proto.MsgID] // proposals' ID slices
	batchSlab   proto.Slab[batch]       // proposals
	bodySlab    proto.Slab[any]         // logged batches' bodies
	headSlab    proto.Slab[[]any]       // the headers logEntry.bodies points at
	slotFree    []*instSlot             // recycled instance slots (GC'd instances)
	sortScratch []proto.MsgID
	suspectsFn  func(proto.PID) bool
	refreshFn   func() consensus.Value
}

// instSlot bundles one consensus instance with its transport in a single
// allocation, so a garbage-collected instance can be reset and reused
// instead of reallocated. The transport is addressed as &slot.tr (a
// pointer into the slot), which boxes into the Transport interface without
// allocating; it also takes the decision upcall (consensus.Decider), so
// retargeting the slot to a new instance number is one field write.
type instSlot struct {
	inst consensus.Instance
	tr   consTransport
}

// msgEntry is one message of the msgs table. A message received by
// reliable broadcast is pending until a decision orders it; a body
// stashed from a catch-up reply is already ordered and never is.
type msgEntry struct {
	body    any
	pending bool
}

// instEntry is what the process knows about one consensus instance: the
// instance itself once it has been built, and its decision — the batch in
// proposal order and who proposed it — once that is known, from the
// instance or from a catch-up reply.
type instEntry struct {
	slot     *instSlot
	ids      []proto.MsgID
	decided  bool
	proposer proto.PID
}

type bufferedMsg struct {
	from proto.PID
	m    consensus.Msg
}

var _ proto.Handler = (*Process)(nil)

// New creates the FD algorithm endpoint for the process behind rt.
func New(rt proto.Runtime, cfg Config) *Process {
	p := &Process{
		rt:       rt,
		buffered: make(map[uint64][]bufferedMsg),
		boxes:    netmodel.NewPool(func(m *consMsg) { m.M = consensus.Msg{} }),
	}
	p.msgs.Reserve(rt.N())
	p.adelivered.Reserve(rt.N())
	p.all = make([]proto.PID, rt.N())
	for i := range p.all {
		p.all[i] = proto.PID(i)
	}
	// Bind the per-process callbacks once: a method value or closure built
	// inside instance() would allocate on every instance.
	p.suspectsFn = rt.Suspects
	p.refreshFn = func() consensus.Value {
		if p.npending == 0 {
			return nil
		}
		return p.proposal()
	}
	p.rb = rbcast.New(rbcast.Config{
		Self:      rt.ID(),
		Multicast: func(m *rbcast.Msg) { rt.Multicast(m) },
		Deliver:   p.onRBDeliver,
	})
	p.rb.Reserve(rt.N())
	p.Reset(cfg)
	return p
}

// Reset returns the endpoint to the state New(rt, cfg) leaves it in, on
// its own runtime: nothing broadcast, received, decided or logged, no
// catch-up in progress. Its tables, decision log, box pool, instance
// slots and catch-up timers are kept for reuse — every built instance's
// slot goes back to the free list, and the proposal and body slabs carve
// on where they stopped, so no batch of the previous run is overwritten. The
// runtime's timers of the previous run must not fire afterwards, and the
// catch-up timers must not be pending (the engine is reset alongside).
func (p *Process) Reset(cfg Config) {
	if cfg.Deliver == nil {
		panic("ctabcast: nil Deliver")
	}
	for k, hi := p.insts.Lo(), p.insts.Hi(); k < hi; k++ {
		if s := p.insts.Get(k).slot; s != nil {
			p.slotFree = append(p.slotFree, s)
		}
	}
	p.insts.Reset()
	p.msgs.Reset()
	p.adelivered.Reset()
	clear(p.buffered)
	p.log.Reset(1)
	p.log.Retain = logRetain
	p.rb.Reset()
	*p = Process{
		rt:          p.rt,
		cfg:         cfg,
		rb:          p.rb,
		all:         p.all,
		msgs:        p.msgs,
		adelivered:  p.adelivered,
		insts:       p.insts,
		buffered:    p.buffered,
		nextDeliver: 1,
		log:         p.log,
		cuRetry:     p.cuRetry,
		probe:       p.probe,
		boxes:       p.boxes,
		idSlab:      p.idSlab,
		batchSlab:   p.batchSlab,
		bodySlab:    p.bodySlab,
		headSlab:    p.headSlab,
		slotFree:    p.slotFree,
		sortScratch: p.sortScratch[:0],
		suspectsFn:  p.suspectsFn,
		refreshFn:   p.refreshFn,
	}
	p.insts.Advance(1) // instances are numbered from 1
}

// Init implements proto.Handler.
func (p *Process) Init() {}

// ABroadcast atomically broadcasts body and returns its message ID.
func (p *Process) ABroadcast(body any) proto.MsgID {
	return p.rb.Broadcast(body)
}

// OnMessage implements proto.Handler.
func (p *Process) OnMessage(from proto.PID, payload any) {
	p.rxCount++
	switch m := payload.(type) {
	case *rbcast.Msg:
		p.rb.OnMessage(*m)
	case *consMsg:
		// Copy K and M out of the pooled box before it is released.
		p.onConsensusMsg(from, m.K, m.M)
	case catchUpReq:
		p.onCatchUpReq(from, m.From)
	case catchUpReply:
		// The reply owns its entries and bodies; the ID slices in them are
		// immutable shares of decided values, the established
		// cross-process idiom.
		p.onCatchUpReply(m)
	default:
		panic(fmt.Sprintf("ctabcast: unknown payload %T", payload))
	}
}

// OnSuspect implements proto.Handler: suspicion edges feed the reliable
// broadcast relay and every live consensus instance.
func (p *Process) OnSuspect(q proto.PID) {
	p.rb.OnSuspect(q)
	// Notify instances in ascending order: a suspicion can make an
	// instance send (round change), and the send order must not vary
	// between runs. Instances built while the walk runs are not notified.
	for k, hi := p.insts.Lo(), p.insts.Hi(); k < hi; k++ {
		if e := p.insts.Get(k); e != nil && e.slot != nil {
			e.slot.inst.OnSuspect(q)
		}
	}
}

// OnTrust implements proto.Handler. The FD algorithm is insensitive to
// trust edges: a burned round is never revisited.
func (p *Process) OnTrust(proto.PID) {}

// Pending returns the number of messages awaiting ordering (diagnostics).
func (p *Process) Pending() int { return p.npending }

// NextInstance returns the lowest undelivered consensus instance
// (diagnostics).
func (p *Process) NextInstance() uint64 { return p.nextDeliver }

// onRBDeliver receives a reliably-broadcast message exactly once.
func (p *Process) onRBDeliver(id proto.MsgID, body any) {
	if p.adelivered.Seen(id) {
		return
	}
	// Reliable broadcast delivers an ID once, so whatever the table holds
	// under it is a stashed body, not a pending message.
	p.msgs.Put(id, msgEntry{body: body, pending: true})
	p.npending++
	// A decided batch may have been stalled waiting for this body.
	p.drainDecisions()
	p.maybePropose()
}

// maybePropose starts (or feeds a value into) the current consensus
// instance when there are unordered messages.
func (p *Process) maybePropose() {
	if p.npending == 0 {
		return
	}
	inst := p.instance(p.nextDeliver)
	if inst.Decided() {
		return // drainDecisions will open the next instance
	}
	if inst.HasEstimate() {
		// Start keeps the first value, so snapshotting a fresh proposal
		// here would allocate only to be discarded.
		inst.Restart()
		return
	}
	if inst.Coordinator(1) == p.rt.ID() {
		inst.Start(p.proposal())
		return
	}
	// A non-coordinator's round-1 value is never transmitted: if the
	// instance ever reaches round 2 with our timestamp still zero, the
	// estimate is re-snapshotted through RefreshEstimate (the pending set
	// cannot drain under a started, undecided instance, so the refresh is
	// always non-nil). Starting lazily skips the snapshot allocation on
	// the fast path.
	inst.StartLazy()
}

// proposal snapshots the pending set in canonical order, the order the
// table iterates in, into storage carved from the process's slabs.
func (p *Process) proposal() *batch {
	ids := p.idSlab.Carve(p.npending, idChunkMin, idChunkMax)[:0]
	p.msgs.Each(func(id proto.MsgID, m *msgEntry) {
		if m.pending {
			ids = append(ids, id)
		}
	})
	b := &p.batchSlab.Carve(1, batchChunkMin, batchChunkMax)[0]
	b.ids = ids
	return b
}

// take removes id from the message table and returns its body, nil when
// the table has none.
func (p *Process) take(id proto.MsgID) any {
	m := p.msgs.Get(id)
	if m == nil {
		return nil
	}
	body := m.body
	if m.pending {
		p.npending--
	}
	p.msgs.Delete(id)
	return body
}

// instance returns (creating on demand) the consensus instance k.
// Callers must ensure the first coordinator for k is known:
// k <= nextDeliver, or renumbering disabled.
//
// Instances are pooled: a slot recycled by collectGarbage is retargeted
// to k and its consensus.Instance reset in place, so steady-state
// operation reuses the same handful of slots instead of allocating one
// per batch.
func (p *Process) instance(k uint64) *consensus.Instance {
	if e := p.insts.Get(k); e != nil && e.slot != nil {
		return &e.slot.inst
	}
	first := proto.PID(0)
	if p.cfg.Renumber {
		first = p.firstCoordFor(k)
	}
	var s *instSlot
	if n := len(p.slotFree); n > 0 {
		s = p.slotFree[n-1]
		p.slotFree = p.slotFree[:n-1]
	} else {
		s = &instSlot{tr: consTransport{p: p}}
	}
	s.tr.k = k
	s.inst.Reset(consensus.Config{
		Self:            p.rt.ID(),
		Participants:    p.all,
		FirstCoord:      first,
		Suspects:        p.suspectsFn,
		RefreshEstimate: p.refreshFn,
	}, &s.tr)
	p.insts.At(k).slot = s
	return &s.inst
}

// firstCoordFor returns the round-1 coordinator of instance k under the
// renumbering optimisation. It is only defined for k <= nextDeliver (the
// proposers of all earlier instances are known).
func (p *Process) firstCoordFor(k uint64) proto.PID {
	if k == p.nextDeliver {
		return p.firstCoord
	}
	if e := p.insts.Get(k - 1); e != nil && e.decided {
		return e.proposer
	}
	return p.firstCoord
}

// onConsensusMsg routes a consensus message to its instance, creating it
// reactively. With renumbering, messages for instances beyond
// nextDeliver are buffered until the earlier decisions (which determine
// the coordinator order) arrive.
func (p *Process) onConsensusMsg(from proto.PID, k uint64, m consensus.Msg) {
	p.noteInstance(from, k)
	if k < p.insts.Lo() {
		return // instance already garbage-collected; peer is far behind
	}
	if p.cfg.Renumber && k > p.nextDeliver {
		if e := p.insts.Get(k); e == nil || e.slot == nil {
			p.buffered[k] = append(p.buffered[k], bufferedMsg{from: from, m: m})
			return
		}
	}
	p.instance(k).OnMessage(from, m)
}

// onDecide records the decision of instance k and delivers in order.
func (p *Process) onDecide(k uint64, v consensus.Value, proposer proto.PID) {
	b, ok := v.(*batch)
	if !ok {
		panic(fmt.Sprintf("ctabcast: decision of unexpected type %T", v))
	}
	e := p.insts.Get(k) // in the table: its instance is the caller
	e.ids, e.decided, e.proposer = b.ids, true, proposer
	p.drainDecisions()
}

// drainDecisions A-delivers decided batches in instance order. A batch
// whose body has not arrived yet stalls the drain; it resumes from
// onRBDeliver.
func (p *Process) drainDecisions() {
	for {
		e := p.insts.Get(p.nextDeliver)
		if e == nil || !e.decided {
			break
		}
		ids, proposer := e.ids, e.proposer
		// All bodies must be present before the batch is delivered, so
		// delivery of the whole batch is atomic in ID order.
		ready := true
		for _, id := range ids {
			if p.msgs.Get(id) == nil && !p.adelivered.Seen(id) {
				ready = false
				break
			}
		}
		if !ready {
			break
		}
		// Log the batch before delivery consumes the bodies: catch-up
		// serves stragglers from the log long after the consensus
		// instances themselves are garbage-collected.
		p.appendLog(ids, proposer)
		// Sort into a reused scratch slice; the decision slice itself must
		// stay in proposal order for decision forwarding. Deliver never
		// reenters drainDecisions synchronously (all sends go through the
		// event queue), so the scratch cannot be clobbered mid-iteration.
		p.sortScratch = append(p.sortScratch[:0], ids...)
		proto.SortMsgIDs(p.sortScratch)
		for _, id := range p.sortScratch {
			if !p.adelivered.Add(id) {
				continue // decided twice across batches; deliver once
			}
			body := p.take(id)
			p.rb.MarkStable(id)
			p.cfg.Deliver(id, body)
		}
		if p.cfg.Renumber {
			p.firstCoord = proposer
		}
		p.nextDeliver++
		// The previous instance's decision is now superseded by this
		// delivery everywhere that matters: stop suspicion-triggered
		// relays for it (decision forwarding keeps answering stragglers).
		// Without this, a crash would trigger a relay storm across the
		// whole retained window.
		if p.nextDeliver >= 3 {
			if e := p.insts.Get(p.nextDeliver - 2); e != nil && e.slot != nil {
				e.slot.inst.Close()
			}
		}
		p.collectGarbage()
		p.flushBuffered()
	}
	p.maybePropose()
}

// flushBuffered replays consensus messages that waited for the coordinator
// order of the now-current instance.
func (p *Process) flushBuffered() {
	msgs, ok := p.buffered[p.nextDeliver]
	if !ok {
		return
	}
	delete(p.buffered, p.nextDeliver)
	for _, bm := range msgs {
		p.instance(p.nextDeliver).OnMessage(bm.from, bm.m)
	}
}

// collectGarbage closes and drops instances that fell out of the retention
// window. Decision forwarding for recently finished instances keeps
// working inside the window.
func (p *Process) collectGarbage() {
	if p.nextDeliver < instanceWindow {
		return
	}
	p.retire(p.nextDeliver - instanceWindow)
}

// retire forgets every instance below floor: the instances are closed and
// their slots recycled, the decisions and buffered messages dropped, and
// the table's Lo — the watermark that filters any straggler message
// addressed to a recycled slot's previous instance — rises to floor.
func (p *Process) retire(floor uint64) {
	for k, end := p.insts.Lo(), min(floor, p.insts.Hi()); k < end; k++ {
		if s := p.insts.Get(k).slot; s != nil {
			s.inst.Close()
			p.slotFree = append(p.slotFree, s)
		}
	}
	p.insts.Advance(floor)
	for k := range p.buffered {
		if k < floor {
			delete(p.buffered, k)
		}
	}
}

// consTransport adapts the process runtime to one instance's transport,
// adding the instance tag, and routes the instance's decision back to the
// process. It is embedded in an instSlot and addressed by pointer, so
// handing it to consensus as a Transport does not allocate.
type consTransport struct {
	p *Process
	k uint64
}

// box draws a consMsg wire box from the process pool.
func (p *Process) box(k uint64, m consensus.Msg) *consMsg {
	b := p.boxes.Get()
	b.K, b.M = k, m
	return b
}

func (t *consTransport) Send(to proto.PID, m consensus.Msg) {
	t.p.rt.Send(to, t.p.box(t.k, m))
}

func (t *consTransport) Multicast(m consensus.Msg) {
	t.p.rt.Multicast(t.p.box(t.k, m))
}

// Decide implements consensus.Decider.
func (t *consTransport) Decide(v consensus.Value, proposer proto.PID) {
	t.p.onDecide(t.k, v, proposer)
}
