package ctabcast

// Decision-log catch-up: the FD stack's recovery path for gaps that
// outlive the consensus instance window. The GM stack recovers a joiner
// from the same kind of log (proto.Log) through its state transfer.
//
// Every process appends each decided batch — IDs, payloads and the
// proposer — to a bounded decision log (proto.Log, keeping logRetain
// entries). A process that falls behind detects its gap from the instance
// numbers piggy-backed on ordinary consensus traffic: a message for
// instance k proves its sender had delivered everything below k, so k
// strictly above our frontier is evidence of lag. Detection is two-fold:
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
// most advanced peer observed; the reply carries the log's suffix
// [from, next), which the straggler re-delivers in order through the
// normal drain path. Retries rotate targets with doubling backoff (base
// catchUpRetry, capped), so a crashed responder only costs one timeout.
// If even the responder's log no longer reaches back to `from`, the reply
// degrades to a full-snapshot handoff: the retained suffix plus a copy of
// the responder's delivery tracker. The straggler delivers what the log
// still holds, adopts the tracker for the truncated prefix and jumps its
// frontier — the messages of the truncated prefix are a documented
// delivery gap at that process, the price of unwedging (a GM joiner
// beyond its welcomer's log pays the same price).

import (
	"fmt"
	"slices"
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
// any shipped replies. bodies points at the batch's payloads, parallel to
// ids and nil where the batch re-decided an ID an earlier batch already
// delivered (the earlier entry carries the body); a batch whose bodies
// are all nil — every batch of the built-in workload, whose arrivals
// carry no payload — has none. The payloads and the header that points at
// them are carved from the process's slabs, so replies and adopting
// processes share them. An entry is 40 B: the log keeps over a thousand
// of them per process, and an inline []any would make it 56 B.
type logEntry struct {
	ids      []proto.MsgID
	bodies   *[]any
	proposer proto.PID
}

// body returns the entry's j-th body.
func (e *logEntry) body(j int) any {
	if e.bodies == nil {
		return nil
	}
	return (*e.bodies)[j]
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

// catchUpReply carries the decision suffix [Start, Start+len(Entries)),
// plus the responder's frontier Next and its renumbering seed for
// instance Next. Entries is the reply's own copy: the responder's log is
// compacted in place. Snap is non-nil only on the full-snapshot fallback.
type catchUpReply struct {
	Start      uint64
	Next       uint64
	Entries    []logEntry
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
// deletes them.
func (p *Process) appendLog(ids []proto.MsgID, proposer proto.PID) {
	e := logEntry{ids: ids, proposer: proposer}
	for j, id := range ids {
		m := p.msgs.Get(id)
		if m == nil || m.body == nil {
			continue
		}
		if e.bodies == nil {
			e.bodies = &p.headSlab.Carve(1, batchChunkMin, batchChunkMax)[0]
			*e.bodies = p.bodySlab.Carve(len(ids), idChunkMin, idChunkMax)
		}
		(*e.bodies)[j] = m.body
	}
	p.log.Append(e)
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
	start, entries, gap := p.log.Suffix(reqFrom)
	r := catchUpReply{Start: start, Next: p.nextDeliver, FirstCoord: p.firstCoord}
	r.Entries = slices.Clone(entries) // the log is compacted in place
	if gap {
		r.Snap = p.adelivered.Snapshot()
	}
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
		p.stashBodies(e)
	}
	p.drainDecisions()
}

// stashBodies makes a caught-up entry's payloads available to the drain.
// Decided IDs must not re-enter the pending set: they are already
// ordered, so a stashed entry is not pending.
func (p *Process) stashBodies(e *logEntry) {
	for j, id := range e.ids {
		body := e.body(j)
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
		p.deliverEntry(&r.Entries[i])
	}
	p.adelivered.Merge(r.Snap)
	p.nextDeliver = r.Next
	p.firstCoord = r.FirstCoord
	// Adopt the responder's retained window as our own log: our previous
	// entries sit below the new frontier and the invariant log.Next() ==
	// nextDeliver must hold for our own replies.
	p.log.Adopt(r.Start, r.Entries)
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
func (p *Process) deliverEntry(e *logEntry) {
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
					body = e.body(j)
					break
				}
			}
		}
		p.rb.MarkStable(id)
		p.cfg.Deliver(id, body)
	}
}
