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
// a cancellable *Event handle — the form protocol timers use. ScheduleMsg
// and AfterMsg take a typed record (an opcode, two integers and a payload)
// dispatched to a MsgHandler; they return no handle, which lets the engine
// recycle the event record through a free list the moment it fires. The
// per-message hot path of the network model runs entirely on the second
// form, so simulating a message allocates nothing in the kernel.
package sim

import (
	"fmt"
	"math"
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
	seq  uint64

	// Exactly one of fn (closure form) and h (typed form) is set.
	fn      func()
	h       MsgHandler
	payload any
	a, b    int
	op      uint8

	index     int // heap index, -1 once removed
	cancelled bool
	free      *Event // free-list link, non-nil only while recycled
}

// When returns the instant the event is scheduled to fire at.
func (ev *Event) When() Time { return ev.when }

// Cancel prevents the event from firing. The event is removed from the
// queue immediately and its callback reference is dropped, so whatever
// the closure captured becomes collectable now rather than when the
// timestamp would have been reached. Cancelling an event that already
// fired or was already cancelled is a no-op.
func (ev *Event) Cancel() {
	if ev.cancelled {
		return
	}
	ev.cancelled = true
	ev.fn = nil
	if ev.index >= 0 {
		ev.eng.removeAt(ev.index)
	}
}

// Cancelled reports whether Cancel was called on the event.
func (ev *Event) Cancelled() bool { return ev.cancelled }

// Engine is a discrete-event simulation executor. The zero value is not
// usable; create engines with New.
type Engine struct {
	now  Time
	heap []*Event // binary heap ordered by (when, seq)
	free *Event   // free list of recycled typed-event records
	seq  uint64

	// Executed counts events that have fired, for diagnostics and for
	// runaway-simulation guards in tests.
	executed uint64
}

// New returns an engine with the clock at zero and an empty event queue.
func New() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Executed returns the number of events that have fired so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending returns the number of events currently scheduled. Cancelled
// events are removed from the queue eagerly, so they never count.
func (e *Engine) Pending() int { return len(e.heap) }

// checkAt guards against scheduling in the past (before Now): it would
// silently reorder causality, which is always a bug in the caller.
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
	ev := &Event{eng: e, when: at, seq: e.seq, fn: fn}
	e.seq++
	e.push(ev)
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
		e.free = ev.free
		ev.free = nil
	} else {
		ev = &Event{}
	}
	ev.when, ev.seq = at, e.seq
	e.seq++
	ev.h, ev.op, ev.a, ev.b, ev.payload = h, op, a, b, payload
	e.push(ev)
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
		ev := e.heap[0]
		if ev.when > deadline {
			break
		}
		e.pop()
		e.now = ev.when
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
			ev.free = e.free
			e.free = ev
			h.HandleMsg(op, a, b, payload)
		}
	}
	return n
}

// The event queue is a hand-inlined binary heap ordered by (when, seq).
// The seq tie-break makes same-instant events fire in scheduling order,
// which is what keeps executions deterministic. Compared to
// container/heap this avoids the interface-method dispatch on every
// sift step and lets cancellation remove by index without a Fix.

// less orders heap slots i and j.
func (e *Engine) less(i, j int) bool {
	a, b := e.heap[i], e.heap[j]
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// push appends ev and restores the heap invariant.
func (e *Engine) push(ev *Event) {
	ev.index = len(e.heap)
	e.heap = append(e.heap, ev)
	e.siftUp(ev.index)
}

// pop removes the root. The caller already holds e.heap[0].
func (e *Engine) pop() {
	last := len(e.heap) - 1
	root := e.heap[0]
	if last > 0 {
		e.heap[0] = e.heap[last]
		e.heap[0].index = 0
	}
	e.heap[last] = nil
	e.heap = e.heap[:last]
	if last > 1 {
		e.siftDown(0)
	}
	root.index = -1
	// Drop the engine back-pointer (only Cancel needs it, only while
	// queued): a retained handle to a fired event must not pin the whole
	// engine — heap and free list included.
	root.eng = nil
}

// removeAt deletes the event at heap slot i, restoring the invariant from
// that slot in both directions.
func (e *Engine) removeAt(i int) {
	ev := e.heap[i]
	last := len(e.heap) - 1
	if i != last {
		e.heap[i] = e.heap[last]
		e.heap[i].index = i
	}
	e.heap[last] = nil
	e.heap = e.heap[:last]
	if i < last {
		e.siftDown(i)
		e.siftUp(i)
	}
	ev.index = -1
	ev.eng = nil // as in pop: a removed event must not pin the engine
}

func (e *Engine) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(i, parent) {
			break
		}
		e.swap(i, parent)
		i = parent
	}
}

func (e *Engine) siftDown(i int) {
	n := len(e.heap)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		least := left
		if right := left + 1; right < n && e.less(right, left) {
			least = right
		}
		if !e.less(least, i) {
			break
		}
		e.swap(i, least)
		i = least
	}
}

func (e *Engine) swap(i, j int) {
	e.heap[i], e.heap[j] = e.heap[j], e.heap[i]
	e.heap[i].index = i
	e.heap[j].index = j
}
