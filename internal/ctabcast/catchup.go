package ctabcast

// Decision-log catch-up: the FD stack's recovery path for gaps that
// outlive the consensus instance window, mirroring the GM stack's state
// transfer.
//
// Every process appends each decided batch — IDs, payload references and
// the proposer — to a bounded decision log (logRetain entries, trimmed
// oldest-first and compacted in place). A process that falls behind
// detects its gap from the instance numbers piggy-backed on ordinary
// consensus traffic: a message for instance k proves its sender had
// delivered everything below k, so k strictly above our frontier is
// evidence of lag. Detection is two-fold:
//
//   - Passive: a message at least instanceWindow ahead of the frontier
//     means peers have garbage-collected the instances we need; ordinary
//     decision forwarding can never close that gap, so catch-up starts
//     immediately.
//   - Probed: Resume() — armed by the harness on Recover and on partition
//     Heal — checks after catchUpDelay whether any evidence of lag
//     accumulated and, if so, starts catch-up even for in-window gaps
//     (which otherwise wedge until a suspicion happens to trigger a
//     relay).
//
// Catch-up is a request/reply suffix transfer with deterministic
// timeout/retry over the simulated clock: CatchUpReq(from) goes to the
// most advanced peer observed; the reply carries the decision suffix
// [from, next), copied out of the responder's log, which the straggler
// re-delivers in order through the normal drain path. Retries rotate
// targets with doubling backoff (base catchUpRetry, capped), so a crashed
// responder only costs one timeout. If even the responder's log no longer
// reaches back to `from`, the reply degrades to a full-snapshot handoff:
// the retained suffix plus a copy of the responder's delivery tracker. The
// straggler delivers what the log still holds, adopts the tracker for the
// truncated prefix and jumps its frontier — the messages of the truncated
// prefix are a documented delivery gap at that process, the price of
// unwedging (GM's state transfer pays the same price by construction: a
// rejoiner only receives the current service state).

import (
	"fmt"
	"time"

	"repro/internal/proto"
)

// The catch-up constants. No figure, command or example ever set a second
// value, so they are not configuration.
const (
	// logRetain bounds the decision log kept for suffix transfer: 16
	// instance windows, so a gap that has just outgrown decision
	// forwarding is far from the snapshot handoff and its delivery gap.
	// The partition figure's highest loads do outrun it, which keeps the
	// handoff exercised.
	logRetain = 1024
	// catchUpDelay is how long after Resume the probe looks for evidence
	// of lag: well above the ~10 ms a consensus instance takes, so a live
	// system has spoken by then, and well below the seconds a recovery is
	// measured in.
	catchUpDelay = 150 * time.Millisecond
	// catchUpRetry is the base retry backoff of the exchange: an order of
	// magnitude above an uncongested request/reply round trip, so only a
	// lost message or a dead responder times out.
	catchUpRetry = 100 * time.Millisecond
	// catchUpBackoffCap bounds the retry backoff at this multiple of
	// catchUpRetry.
	catchUpBackoffCap = 16
	// maxIdleProbes is how many consecutive probe checks may observe a
	// totally silent network before the probe stops waiting for evidence
	// and asks a peer directly. From the probing process's seat, "no lag
	// evidence" amid silence is indistinguishable from "everyone else is
	// idle too" — only a direct question settles it.
	maxIdleProbes = 2
)

// logEntry is one decided batch in the decision log. ids is the decision
// value in proposal order, shared (immutably) with the instance table and
// any shipped replies. Its bodies are parallel to ids, nil where the batch
// re-decided an ID an earlier batch already delivered (the earlier entry
// carries the body). They are the len(ids) slots from off of the body
// buffer that goes with the entries (Process.logBodies for the log,
// catchUpReply.Bodies for a reply), in entry order. A batch whose bodies
// are all nil — every batch of the built-in workload, whose arrivals carry
// no payload — takes no slots: its off is noBodies.
type logEntry struct {
	ids      []proto.MsgID
	off      int
	proposer proto.PID
}

// noBodies is the offset of an entry whose bodies are all nil.
const noBodies = -1

// body returns the entry's j-th body out of its body buffer.
func (e *logEntry) body(buf []any, j int) any {
	if e.off == noBodies {
		return nil
	}
	return buf[e.off+j]
}

// bodiesFrom returns where the bodies of entries[i:] begin in their body
// buffer buf.
func bodiesFrom(entries []logEntry, i int, buf []any) int {
	for ; i < len(entries); i++ {
		if entries[i].off != noBodies {
			return entries[i].off
		}
	}
	return len(buf)
}

// rebase shifts the entries' offsets down by base, the start of the part
// of their body buffer they keep.
func rebase(entries []logEntry, base int) {
	for i := range entries {
		if entries[i].off != noBodies {
			entries[i].off -= base
		}
	}
}

// catchUpReq asks a peer for the decision suffix starting at instance
// From. Catch-up messages travel as plain values, not pooled boxes like
// consMsg: a run sends a few hundred of them against millions of
// consensus messages.
type catchUpReq struct {
	From uint64
}

// String renders the request for traces.
func (m catchUpReq) String() string { return fmt.Sprintf("CatchUpReq[from=%d]", m.From) }

// catchUpReply carries the decision suffix [Start, Start+len(Entries))
// with the entries' bodies, plus the responder's frontier Next and its
// renumbering seed for instance Next. Entries and Bodies are the reply's
// own copy: the responder's log is compacted in place. Snap is non-nil
// only on the full-snapshot fallback.
type catchUpReply struct {
	Start      uint64
	Next       uint64
	Entries    []logEntry
	Bodies     []any
	Snap       *proto.TrackerSnapshot
	FirstCoord proto.PID
}

// String renders the reply for traces.
func (m catchUpReply) String() string {
	if m.Snap != nil {
		return fmt.Sprintf("CatchUpReply[%d..%d snap]", m.Start, m.Next)
	}
	return fmt.Sprintf("CatchUpReply[%d..%d]", m.Start, m.Next)
}

// appendLog records the batch the drain is about to deliver (instance
// nextDeliver) in the decision log, capturing bodies before delivery
// deletes them. The log is trimmed to logRetain entries with hysteresis,
// compacting entries and bodies in place, so once both buffers have
// reached their working size a batch costs no allocation.
func (p *Process) appendLog(ids []proto.MsgID, proposer proto.PID) {
	e := logEntry{ids: ids, off: noBodies, proposer: proposer}
	for _, id := range ids {
		if m := p.msgs.Get(id); m != nil && m.body != nil {
			e.off = len(p.logBodies)
			break
		}
	}
	if e.off != noBodies {
		for _, id := range ids {
			var body any
			if m := p.msgs.Get(id); m != nil {
				body = m.body
			}
			p.logBodies = append(p.logBodies, body)
		}
	}
	p.log = append(p.log, e)
	if len(p.log) <= p.logRetain+p.logRetain/2 {
		return
	}
	drop := len(p.log) - p.logRetain
	base := bodiesFrom(p.log, drop, p.logBodies)
	n := copy(p.log, p.log[drop:])
	clear(p.log[n:]) // release the dropped decision values
	p.log = p.log[:n]
	rebase(p.log, base)
	n = copy(p.logBodies, p.logBodies[base:])
	clear(p.logBodies[n:]) // and the dropped bodies
	p.logBodies = p.logBodies[:n]
	p.logStart += uint64(drop)
}

// copyLog copies the log from entry i on, with its bodies, into arrays of
// its own, the entries' offsets rebased onto the copied bodies.
func (p *Process) copyLog(i int) ([]logEntry, []any) {
	if i == len(p.log) {
		return nil, nil
	}
	base := bodiesFrom(p.log, i, p.logBodies)
	entries := append([]logEntry(nil), p.log[i:]...)
	rebase(entries, base)
	return entries, append([]any(nil), p.logBodies[base:]...)
}

// noteInstance digests the lag evidence carried by every incoming
// consensus message: processes only send for instances up to their own
// frontier, so a message for instance k proves its sender delivered
// everything below k. A message a whole retention window ahead means the
// instances we need are already garbage-collected at peers — only the
// decision log can help, so catch-up starts immediately.
func (p *Process) noteInstance(from proto.PID, k uint64) {
	if from != p.rt.ID() && k > p.maxSeen {
		p.maxSeen = k
		p.maxSeenFrom = from
	}
	if k >= p.nextDeliver+instanceWindow {
		p.startCatchUp()
	}
}

// Resume arms the catch-up probe. The harness calls it when the process
// recovers from an outage and, on every live process, when a partition
// heals: after catchUpDelay the process checks whether evidence of lag
// has accumulated (a peer frontier above ours, or consensus messages
// buffered for instances we cannot build yet) and starts catch-up if so.
// With no evidence the probe's next move depends on what it heard in the
// meantime. Any received traffic that produced no evidence means the
// process is current, so the probe disarms silently — a process resumed
// into a live, healthy system sends nothing. Total silence is different:
// an idle system produces no evidence whether or not we are behind, so
// the probe re-arms, and after maxIdleProbes consecutive silent checks
// it sends one direct CatchUpReq anyway. The exchange self-terminates on
// the first reply (a current process sees the responder's matching
// frontier and stops), so probing a genuinely idle, current system costs
// one round trip. A newer Resume cancels any probe in flight and starts
// over.
func (p *Process) Resume() {
	p.probeRx = p.rxCount
	p.probeIdle = 0
	if p.probe == nil {
		p.probe = p.rt.NewAlarm(p.probeCatchUp)
	}
	p.probe.Cancel()
	p.probe.Arm(catchUpDelay)
}

// probeCatchUp is the Resume probe body.
func (p *Process) probeCatchUp() {
	if p.catchingUp() {
		return
	}
	if p.maxSeen > p.nextDeliver || len(p.buffered) > 0 {
		p.startCatchUp()
		return
	}
	if p.rxCount != p.probeRx {
		// Traffic arrived since the probe was armed and none of it was
		// lag evidence: the process is current. Disarm silently.
		return
	}
	if len(p.all) == 1 {
		return // no peer to ask
	}
	p.probeIdle++
	if p.probeIdle >= maxIdleProbes {
		// The system has been silent for the whole probe window, twice
		// over: stop waiting for evidence that silence can never produce
		// and ask a peer directly. The exchange gets one evidence-free
		// rotation through the peers, so a crashed first target does not
		// kill it, and still terminates if every peer is down.
		p.startCatchUp()
		p.cuBlind = len(p.all) - 1
		return
	}
	p.probeRx = p.rxCount
	p.probe.Arm(catchUpDelay)
}

// catchingUp reports whether a catch-up exchange is in progress: exactly
// while its retry timer is pending.
func (p *Process) catchingUp() bool { return p.cuRetry != nil && p.cuRetry.Pending() }

// startCatchUp opens the catch-up exchange against the most advanced
// peer observed. Idempotent while one is in progress.
func (p *Process) startCatchUp() {
	if p.cuRetry == nil {
		p.cuRetry = p.rt.NewAlarm(p.retryCatchUp)
	} else if p.cuRetry.Pending() {
		return
	}
	p.cuBackoff = catchUpRetry
	p.cuBlind = 0
	p.cuTarget = p.maxSeenFrom
	p.sendCatchUpReq()
}

// sendCatchUpReq asks the current target for the suffix from our
// frontier and (re-)arms the retry timer: if the target crashed, or the
// request or reply was lost to a partition or link fault, the timer
// rotates to the next peer with doubled (capped) backoff.
func (p *Process) sendCatchUpReq() {
	if p.cuTarget == p.rt.ID() {
		p.cuTarget = proto.PID((int(p.cuTarget) + 1) % len(p.all))
	}
	p.rt.Send(p.cuTarget, catchUpReq{From: p.nextDeliver})
	d := p.cuBackoff
	if p.cuBackoff < catchUpBackoffCap*catchUpRetry {
		p.cuBackoff *= 2
	}
	p.cuRetry.Cancel()
	p.cuRetry.Arm(d)
}

// retryCatchUp fires when a request went unanswered for a full backoff
// period. Evidence is re-checked first: the gap may have closed through
// ordinary operation (a late reply, or in-window decision forwarding).
// A forced (evidence-free) exchange instead spends its bounded cuBlind
// budget before giving up, so one crashed responder cannot strand it.
// Giving up is not re-arming: the exchange ends with its retry timer.
func (p *Process) retryCatchUp() {
	if p.maxSeen <= p.nextDeliver && len(p.buffered) == 0 {
		if p.cuBlind == 0 {
			return
		}
		p.cuBlind--
	}
	p.cuTarget = proto.PID((int(p.cuTarget) + 1) % len(p.all))
	p.sendCatchUpReq()
}

// onCatchUpReq answers a straggler with the decision suffix from its
// frontier. If the log has been trimmed below the request, the reply
// degrades to the full-snapshot handoff: everything the log still holds
// plus a copy of the delivery tracker. Replies always carry the current
// frontier, so even an empty reply tells the requester where the
// responder stands.
func (p *Process) onCatchUpReq(from proto.PID, reqFrom uint64) {
	r := catchUpReply{Next: p.nextDeliver, FirstCoord: p.firstCoord}
	i := 0
	if reqFrom >= p.logStart {
		i = int(min(reqFrom-p.logStart, uint64(len(p.log))))
	} else {
		r.Snap = p.adelivered.Snapshot()
	}
	r.Start = p.logStart + uint64(i)
	r.Entries, r.Bodies = p.copyLog(i)
	p.rt.Send(from, r)
}

// onCatchUpReply applies a suffix (or snapshot) reply. Replies are
// idempotent: duplicates and overlaps re-apply harmlessly — delivery is
// deduplicated by adelivered and the frontier never rewinds — so a slow
// responder answering after a retry already succeeded costs nothing.
func (p *Process) onCatchUpReply(r catchUpReply) {
	before := p.nextDeliver
	if r.Snap != nil && r.Start > p.nextDeliver {
		p.applySnapshot(r)
	} else {
		p.applySuffix(r)
	}
	if !p.catchingUp() {
		return
	}
	if p.maxSeen <= p.nextDeliver && len(p.buffered) == 0 {
		p.cuRetry.Cancel() // caught up: the exchange ends
		return
	}
	if p.nextDeliver > before {
		// Still behind, but the reply made progress (decisions kept
		// landing while the suffix travelled): go again immediately from
		// the new frontier, re-targeting the most advanced peer. A reply
		// that made no progress instead waits for the armed retry timer,
		// which rotates targets.
		p.cuBackoff = catchUpRetry
		p.cuTarget = p.maxSeenFrom
		p.sendCatchUpReq()
	}
}

// applySuffix folds a contiguous decision suffix into the ordinary drain
// path: record each batch as a decision, stash its bodies, and drain.
func (p *Process) applySuffix(r catchUpReply) {
	for i := range r.Entries {
		k := r.Start + uint64(i)
		if k < p.nextDeliver || k >= r.Next {
			continue
		}
		e := &r.Entries[i]
		if d := p.insts.At(k); !d.decided {
			d.ids, d.decided, d.proposer = e.ids, true, e.proposer
		}
		p.stashBodies(e, r.Bodies)
	}
	p.drainDecisions()
}

// stashBodies makes a caught-up entry's payloads available to the drain.
// Decided IDs must not re-enter the pending set: they are already
// ordered, so a stashed entry is not pending.
func (p *Process) stashBodies(e *logEntry, buf []any) {
	for j, id := range e.ids {
		body := e.body(buf, j)
		if body == nil || p.adelivered.Seen(id) {
			continue
		}
		if p.msgs.Get(id) == nil {
			p.msgs.Put(id, msgEntry{body: body})
		}
	}
}

// applySnapshot installs a full-snapshot handoff: the responder's log no
// longer reaches back to our frontier, so re-delivering every missed
// message is impossible. The retained suffix is delivered against our
// own dedup state first (merging the tracker earlier would mark those
// IDs seen and suppress their delivery), then the tracker covers the
// truncated prefix and the frontier jumps. The truncated prefix is a
// delivery gap at this process — the documented price of unwedging.
func (p *Process) applySnapshot(r catchUpReply) {
	for i := range r.Entries {
		p.deliverEntry(&r.Entries[i], r.Bodies)
	}
	p.adelivered.Merge(r.Snap)
	p.nextDeliver = r.Next
	p.firstCoord = r.FirstCoord
	// Adopt the responder's retained window as our own log: our previous
	// entries sit below the new frontier and the invariant
	// logStart+len(log) == nextDeliver must hold for our own replies. The
	// reply's offsets index its Bodies, which become the log's.
	p.log = refill(p.log, r.Entries)
	p.logBodies = refill(p.logBodies, r.Bodies)
	p.logStart = r.Start
	// Drop ordering state below the new frontier.
	p.retire(p.nextDeliver)
	// Pending messages the snapshot covers were delivered elsewhere:
	// withdraw them from future proposals and relays.
	p.msgs.Each(func(id proto.MsgID, m *msgEntry) {
		if m.pending && p.adelivered.Seen(id) {
			p.take(id)
			p.rb.MarkStable(id)
		}
	})
	p.drainDecisions()
}

// deliverEntry A-delivers one caught-up batch directly — the snapshot
// path cannot go through drainDecisions because the batch numbers lie
// beyond the contiguous frontier. Same per-batch semantics: sorted ID
// order, adelivered dedup, bodies preferred from local state.
func (p *Process) deliverEntry(e *logEntry, buf []any) {
	p.sortScratch = append(p.sortScratch[:0], e.ids...)
	proto.SortMsgIDs(p.sortScratch)
	for _, id := range p.sortScratch {
		if !p.adelivered.Add(id) {
			continue
		}
		body := p.take(id)
		if body == nil {
			for j, eid := range e.ids {
				if eid == id {
					body = e.body(buf, j)
					break
				}
			}
		}
		p.rb.MarkStable(id)
		p.cfg.Deliver(id, body)
	}
}

// refill replaces dst's contents with a copy of src in dst's own array,
// zeroing what is left of the old contents so it pins nothing.
func refill[T any](dst, src []T) []T {
	old := len(dst)
	dst = append(dst[:0], src...)
	if len(dst) < old {
		clear(dst[len(dst):old])
	}
	return dst
}
