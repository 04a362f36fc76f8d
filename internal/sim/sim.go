// Package sim provides a deterministic discrete-event simulation kernel:
// a virtual clock, a cancellable event queue, and seedable random number
// streams.
//
// The kernel plays the role that the Neko framework played in the paper
// "Comparison of Failure Detectors and Group Membership" (Urbán,
// Shnayderman, Schiper; DSN 2003): it executes protocol code against a
// simulated environment. The engine is single-threaded: callbacks run
// one at a time in a deterministic order, so a simulation is
// reproducible bit-for-bit from its seed. Events scheduled for the same
// instant run in the order they were scheduled. Parallelism lives one
// level up, across independent simulations (experiment.Runner.Workers);
// docs/ARCHITECTURE.md records why there is none inside one.
//
// Two scheduling forms exist. Schedule and After take a closure and return
// a cancellable *Event handle — the form one-shot timers use. ScheduleMsg
// and AfterMsg take a typed record (an opcode, two integers and a payload)
// dispatched to a MsgHandler; they return no handle, which lets the engine
// recycle the event record through a free list the moment it fires. The
// per-message hot path of the network model runs entirely on the second
// form, so simulating a message allocates nothing in the kernel. A timer
// re-armed over and over keeps one closure-form record of its own and
// re-arms it with Rearm: a workload source's next arrival does
// (workload.Poisson), and so does every protocol timer, through
// proto.Alarm, which adds the process's crash and incarnation guard.
//
// The event queue is a binary min-heap of runs: a run is a FIFO of events
// that share one instant, linked through the event records, and its heap
// slot carries the instant and the seq of the run's first event inline, so
// ordering never reads an *Event. Events at one instant fire in scheduling
// order, so a run appended in push order is already sorted. A push that
// joins the latest run at its instant and a pop that leaves events in its
// run touch no other slot; only opening or closing a run sifts. Cancel
// scans the slots at its instant and unlinks the record at once, so
// Pending is exact; cancels are rare next to pops.
//
// Reset empties an engine for the next simulation in place, keeping the
// heap's capacity and the free list warm.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// Time is an instant of virtual time, expressed in nanoseconds since the
// start of the simulation. The zero value is the simulation start.
//
// The paper sets one network time unit equal to 1 ms; all experiment code
// follows that convention, but nothing in the kernel depends on it.
type Time int64

// Add returns the instant d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Duration converts the instant to the duration elapsed since the
// simulation start.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Milliseconds returns the instant as a floating-point number of
// milliseconds since the simulation start.
func (t Time) Milliseconds() float64 { return float64(t) / float64(time.Millisecond) }

// String formats the instant as a millisecond value, the unit used
// throughout the paper.
func (t Time) String() string { return fmt.Sprintf("%.3fms", t.Milliseconds()) }

// Millis converts a floating-point number of milliseconds to a
// time.Duration. It is a convenience for experiment configuration, where
// the paper quotes every parameter in milliseconds. Values beyond the
// representable range — +Inf included — saturate to the maximum
// duration (~292 virtual years) instead of overflowing to a negative
// duration, so a pathologically slow event source degrades to "never
// fires within any run" rather than a scheduling panic.
func Millis(ms float64) time.Duration {
	ns := ms * float64(time.Millisecond)
	if ns >= math.MaxInt64 {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(ns)
}

// MsgHandler receives closure-free scheduled records. The meaning of op,
// a and b is private to the handler; the engine only stores and returns
// them. Implementations are typically a single switch over op, so one
// handler serves every stage of a pipeline without a closure per stage.
type MsgHandler interface {
	HandleMsg(op uint8, a, b int, payload any)
}

// Event is a scheduled callback. It is returned by Engine.Schedule and
// Engine.After so that the caller can cancel it before it fires. Events
// scheduled through ScheduleMsg/AfterMsg are internal records recycled
// through the engine's free list; no handle to them ever escapes.
type Event struct {
	eng  *Engine
	when Time

	// Exactly one of fn (closure form) and h (typed form) is set.
	fn      func()
	h       MsgHandler
	payload any
	a, b    int
	op      uint8

	cancelled bool

	// next links the record into one of two lists, never both at once: the
	// run it is queued in (the later event at the same instant, nil at the
	// run's tail) or, for a recycled typed record, the engine's free list.
	// A record that is neither queued nor recycled holds nil.
	next *Event
}

// When returns the instant the event is scheduled to fire at.
func (ev *Event) When() Time { return ev.when }

// Cancel prevents the event from firing. The event is removed from the
// queue immediately and its callback reference is dropped, so whatever
// the closure captured becomes collectable now rather than when the
// timestamp would have been reached. Cancelling an event that already
// fired or was already cancelled is a no-op, and so is cancelling an owned
// record that was never armed (a zero Event; see Rearm).
func (ev *Event) Cancel() {
	if ev.cancelled {
		return
	}
	ev.cancelled = true
	ev.fn = nil
	// Only a queued event holds its engine (a pop, a cancel and Reset drop
	// it), so the engine always finds it in a run.
	if e := ev.eng; e != nil {
		ev.eng = nil // as at a pop: a removed event must not pin the engine
		e.remove(ev)
	}
}

// Cancelled reports whether Cancel was called on the event.
func (ev *Event) Cancelled() bool { return ev.cancelled }

// Queued reports whether the event is waiting to fire: only a queued
// event holds its engine.
func (ev *Event) Queued() bool { return ev.eng != nil }

// Engine is a discrete-event simulation executor. The zero value is not
// usable; create engines with New.
type Engine struct {
	now   Time
	heap  []run // binary min-heap of runs ordered by (when, seq)
	tails [tailSlots]tail
	free  *Event // free list of recycled typed-event records
	seq   uint64

	pending int

	// Executed counts events that have fired, for diagnostics and for
	// runaway-simulation guards in tests.
	executed uint64
}

// New returns an engine with the clock at zero and an empty event queue.
func New() *Engine {
	return &Engine{}
}

// Reset returns the engine to the state New leaves it in — clock, sequence
// and executed count at zero, nothing queued — keeping the heap's capacity
// and the typed records' free list, so that a simulation rebuilt on it in
// place runs bit for bit like one on a new engine without re-warming
// either. Queued typed records go back to the free list. A queued closure
// event is dropped as a removed one (its closure released, no engine): a
// handle to it from before the reset cancels nothing, and a record the
// caller owns may be re-armed.
func (e *Engine) Reset() {
	for _, r := range e.heap {
		for ev := r.head; ev != nil; {
			next := ev.next
			ev.eng, ev.next = nil, nil
			if ev.fn != nil {
				ev.fn = nil
			} else {
				ev.h, ev.payload = nil, nil
				ev.next = e.free
				e.free = ev
			}
			ev = next
		}
	}
	clear(e.heap)
	*e = Engine{heap: e.heap[:0], free: e.free}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Executed returns the number of events that have fired so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending returns the number of events currently scheduled. Cancelled
// events are removed from the queue eagerly, so they never count.
func (e *Engine) Pending() int { return e.pending }

// checkAt guards against scheduling in the past (before Now): it would
// silently reorder causality, which is always a bug in the caller. It also
// keeps every queued instant at or after Now, hence nonnegative, which the
// heap's unsigned key order relies on (before).
func (e *Engine) checkAt(at Time) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
}

// Schedule registers fn to run at instant at and returns a cancellable
// handle. Scheduling in the past (before Now) panics.
func (e *Engine) Schedule(at Time, fn func()) *Event {
	e.checkAt(at)
	if fn == nil {
		panic("sim: schedule with nil callback")
	}
	ev := &Event{eng: e, when: at, fn: fn}
	e.push(at, ev)
	return ev
}

// After registers fn to run d after the current instant. Negative
// durations panic, zero durations run after the current callback returns.
func (e *Engine) After(d time.Duration, fn func()) *Event {
	return e.Schedule(e.now.Add(d), fn)
}

// ScheduleMsg registers a closure-free event: at instant at, the engine
// calls h.HandleMsg(op, a, b, payload). No handle is returned, so the
// record is pooled — scheduling through this form does not allocate once
// the free list is warm. Scheduling in the past panics.
func (e *Engine) ScheduleMsg(at Time, h MsgHandler, op uint8, a, b int, payload any) {
	e.checkAt(at)
	if h == nil {
		panic("sim: ScheduleMsg with nil handler")
	}
	// Typed records never carry the eng back-pointer: no handle escapes,
	// so Cancel can never be called on them.
	ev := e.free
	if ev != nil {
		e.free = ev.next
		ev.next = nil
	} else {
		ev = &Event{}
	}
	ev.when = at
	ev.h, ev.op, ev.a, ev.b, ev.payload = h, op, a, b, payload
	e.push(at, ev)
}

// Rearm schedules fn at instant at on a record the caller owns, with the
// same sequence draw as Schedule: the caller keeps one record (by value,
// typically) for a timer it re-arms over and over, and re-arming it
// allocates nothing. The record must not be queued — a zero Event, or one
// that fired, was cancelled or was dropped by Reset; re-arming a queued
// record panics. The record is the timer's handle, as Schedule's return
// value is.
func (e *Engine) Rearm(ev *Event, at Time, fn func()) {
	e.checkAt(at)
	if fn == nil {
		panic("sim: Rearm with nil callback")
	}
	if ev.eng != nil {
		panic("sim: Rearm of a queued event")
	}
	*ev = Event{eng: e, when: at, fn: fn}
	e.push(at, ev)
}

// AfterMsg schedules a closure-free event d after the current instant.
func (e *Engine) AfterMsg(d time.Duration, h MsgHandler, op uint8, a, b int, payload any) {
	e.ScheduleMsg(e.now.Add(d), h, op, a, b, payload)
}

// Run executes events in timestamp order until the queue drains. It
// returns the number of events executed by this call.
func (e *Engine) Run() uint64 {
	return e.run(Time(math.MaxInt64))
}

// RunUntil executes events with timestamps at or before deadline, then
// advances the clock to deadline. It returns the number of events executed
// by this call.
func (e *Engine) RunUntil(deadline Time) uint64 {
	n := e.run(deadline)
	if e.now < deadline {
		e.now = deadline
	}
	return n
}

func (e *Engine) run(deadline Time) uint64 {
	var n uint64
	for len(e.heap) > 0 {
		top := &e.heap[0]
		when := top.when
		if when > deadline {
			break
		}
		ev := top.head
		if ev.next != nil {
			// The run keeps its slot and its seq: the events left in it
			// still order before every later run at this instant.
			top.head, ev.next = ev.next, nil
		} else {
			if t := e.tailOf(when); t.ev == ev {
				t.ev = nil
			}
			e.vacate(0)
		}
		e.pending--
		// Drop the engine back-pointer (only Cancel needs it, only while
		// queued): a retained handle to a fired event must not pin the
		// whole engine — heap and free list included.
		ev.eng = nil
		e.now = when
		e.executed++
		n++
		if ev.fn != nil {
			fn := ev.fn
			// Drop the closure before calling it: a fired event whose
			// handle is still retained must not pin what fn captured.
			ev.fn = nil
			fn()
		} else {
			h, op, a, b, payload := ev.h, ev.op, ev.a, ev.b, ev.payload
			// Recycle before dispatch so the handler's own ScheduleMsg
			// calls reuse this record immediately.
			ev.h, ev.payload = nil, nil
			ev.next = e.free
			e.free = ev
			h.HandleMsg(op, a, b, payload)
		}
	}
	return n
}

// The event queue is a hand-inlined binary min-heap of runs ordered by
// (when, seq). A run is the FIFO of events that share one instant, linked
// head to tail through Event.next in push order, and seq is the sequence
// number of the event that opened it. Events at one instant fire in
// scheduling order, which is what keeps executions deterministic: every
// event of a run was scheduled after every event of an earlier run at its
// instant, so popping runs by (when, seq) and each run from its head fires
// every event in (when, seq) order. Since seq is unique, no two keys are
// equal and every valid heap pops the same sequence. Each slot carries its
// key inline, so a sift reads the slot array and never the records it
// points to.
//
// tails remembers, per instant hashed into a direct-mapped table, the tail
// of the latest run opened at that instant. A push joins that run only
// when the entry holds a queued tail at exactly its instant; otherwise it
// opens a new run and takes the entry over. The invariant that makes this
// exact: an entry that names an instant always names the tail of the
// latest run queued at that instant, so the new event, which carries the
// largest seq yet, belongs at its end. Closing a run clears an entry that
// names its last event, and Cancel moves an entry that names the removed
// event back to its predecessor. A collision only costs a run: the next
// push at the evicted instant opens a later run there, and runs at one
// instant pop in the order they were opened.

// tailSlots is the size of the tail table. In wide-topo,
// where about 58 distinct instants are queued on average, 64 entries let
// all but a few percent of the pushes that land on a queued instant find
// its run (docs/ARCHITECTURE.md, "The event queue").
const (
	tailBits  = 6
	tailSlots = 1 << tailBits
)

// run is one heap slot: the key of the run, copied inline, and its first
// event.
type run struct {
	when Time
	seq  uint64
	head *Event
}

// tail is one entry of the tail table: the last event of the latest run
// opened at instant when, or nil.
type tail struct {
	when Time
	ev   *Event
}

// tailOf returns the table entry instant at hashes to (multiplicative
// hashing: the top bits of the product with 2⁶⁴/φ).
func (e *Engine) tailOf(at Time) *tail {
	return &e.tails[uint64(at)*0x9E3779B97F4A7C15>>(64-tailBits)]
}

// before returns 1 if run a orders before run b and 0 otherwise: the
// borrow out of the 128-bit subtraction (a.when, a.seq) − (b.when, b.seq).
// Comparing when as unsigned is exact because checkAt keeps every queued
// instant at or after Now, and Now never drops below zero. The result is
// an integer, not a bool, so that the pop's child choice adds it to an
// index instead of branching on a comparison it cannot predict.
func before(a, b *run) uint64 {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(uint64(a.when), uint64(b.when), borrow)
	return borrow
}

// push queues ev at instant at with the next sequence number: at the end
// of the latest run at that instant when the tail table knows it, or else
// as a new run that sifts up from the bottom, parents moving down into its
// hole.
func (e *Engine) push(at Time, ev *Event) {
	e.pending++
	t := e.tailOf(at)
	if t.ev != nil && t.when == at {
		t.ev.next = ev
		t.ev = ev
		e.seq++
		return
	}
	*t = tail{when: at, ev: ev}
	r := run{when: at, seq: e.seq, head: ev}
	e.seq++
	e.heap = append(e.heap, r)
	e.siftUp(len(e.heap)-1, r)
}

// remove unlinks the queued record ev from its run: Cancel's removal. It
// scans the slots for runs at ev's instant and walks each from its head.
func (e *Engine) remove(ev *Event) {
	for i := range e.heap {
		r := &e.heap[i]
		if r.when != ev.when {
			continue
		}
		var prev *Event
		for x := r.head; x != nil; prev, x = x, x.next {
			if x != ev {
				continue
			}
			switch {
			case prev != nil:
				prev.next = ev.next
			case ev.next != nil:
				r.head = ev.next
			default:
				e.vacate(i)
			}
			// An entry names only a tail, so one that names ev moves back
			// to the new tail, or clears with the run.
			if t := e.tailOf(ev.when); t.ev == ev {
				t.ev = prev
			}
			ev.next = nil
			e.pending--
			return
		}
	}
}

// siftUp places r at hole i or above it, moving each parent that r orders
// before one level down.
func (e *Engine) siftUp(i int, r run) {
	h := e.heap
	for i > 0 {
		p := (i - 1) / 2
		if before(&r, &h[p]) == 0 {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = r
}

// vacate removes the slot at i (the root, for a pop). The last slot leaves
// the array, the hole walks from i down to a leaf along the smaller child
// without comparing against it (Floyd's bottom-up deletion: the last slot
// almost always belongs near the bottom), and then the last slot sifts up
// from that leaf — past i too, when it orders before i's parent, which a
// cancel deep in the heap can need.
func (e *Engine) vacate(i int) {
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap[n] = run{}
	e.heap = e.heap[:n]
	if i == n {
		return
	}
	h := e.heap
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n {
			c += int(before(&h[c+1], &h[c]))
		}
		h[i] = h[c]
		i = c
	}
	e.siftUp(i, last)
}
