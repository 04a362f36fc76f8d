package sim

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"
)

// queueModel is the reference the engine's queue is checked against: the
// pending events as a slice kept sorted by (when, seq), with seq drawn the
// way the engine draws it (one per Schedule, ScheduleMsg or Rearm, from 0
// again after a Reset).
type queueModel struct {
	t        *testing.T
	e        *Engine
	rng      *Rand
	pending  []modelEntry
	seq      uint64
	now      Time
	executed uint64
	nextID   int
	fired    []int // every firing, in order, as checked
	owned    [4]Event

	// Coverage of the run queue's edge cases, summed over a test.
	shared    int // pushes that opened a second run at a queued instant
	positions [3]int
}

type modelEntry struct {
	when Time
	seq  uint64
	id   int
	ev   *Event // nil for a typed record, which has no handle
}

func (m *queueModel) add(when Time, id int, ev *Event) {
	en := modelEntry{when: when, seq: m.seq, id: id, ev: ev}
	m.seq++
	i, _ := slices.BinarySearchFunc(m.pending, en, func(a, b modelEntry) int {
		if a.when != b.when {
			if a.when < b.when {
				return -1
			}
			return 1
		}
		if a.seq < b.seq {
			return -1
		}
		return 1
	})
	m.pending = slices.Insert(m.pending, i, en)
}

// instant draws a firing instant at or after now from a small range, so
// that ties dominate, and now and then the last representable instant, the
// largest key the unsigned order has to rank, or the next instant past the
// range that shares a tail-table entry with an instant in it, so that
// pushes at the two evict each other's runs from the table.
func (m *queueModel) instant() Time {
	if m.rng.Intn(16) == 0 {
		return Time(math.MaxInt64)
	}
	now := m.e.Now()
	d := Time(m.rng.Intn(6))
	if now > Time(math.MaxInt64)-d {
		return Time(math.MaxInt64)
	}
	at := now + d
	if m.rng.Intn(4) == 0 {
		for c := at + 1; c > at; c++ {
			if m.e.tailOf(c) == m.e.tailOf(at) {
				return c
			}
		}
		return Time(math.MaxInt64)
	}
	return at
}

// fire is every callback's first step: the firing event must be the
// model's head, at the model's instant.
func (m *queueModel) fire(id int) {
	m.t.Helper()
	if len(m.pending) == 0 {
		m.t.Fatalf("event %d fired with nothing pending in the model (fired so far %v)", id, m.fired)
	}
	head := m.pending[0]
	if head.id != id || m.e.Now() != head.when {
		m.t.Fatalf("event %d fired at %v, want event %d at %v (fired so far %v)", id, m.e.Now(), head.id, head.when, m.fired)
	}
	m.pending = m.pending[1:]
	m.now = head.when
	m.executed++
	m.fired = append(m.fired, id)
	m.react()
}

// react is what a firing callback does besides checking its turn: nothing
// mostly, or schedules, re-arms or cancels events of its own, or schedules
// one at the current instant, which joins the run being drained when
// events are left in it.
func (m *queueModel) react() {
	switch m.rng.Intn(10) {
	case 0:
		m.schedule()
	case 1:
		m.scheduleMsg()
	case 2:
		m.rearm()
	case 3:
		m.cancel()
	case 4:
		id := m.nextID
		m.nextID++
		m.noteShared(m.now)
		m.e.ScheduleMsg(m.now, m, 0, id, 0, nil)
		m.add(m.now, id, nil)
	}
}

// noteShared counts a push at instant at that will open a second run
// there: a run at at is queued, but the tail table names another instant.
func (m *queueModel) noteShared(at Time) {
	if t := m.e.tailOf(at); t.ev == nil || t.when != at {
		if slices.ContainsFunc(m.e.heap, func(r run) bool { return r.when == at }) {
			m.shared++
		}
	}
}

func (m *queueModel) schedule() {
	at, id := m.instant(), m.nextID
	m.nextID++
	m.noteShared(at)
	ev := m.e.Schedule(at, func() { m.fire(id) })
	m.add(at, id, ev)
}

func (m *queueModel) scheduleMsg() {
	at, id := m.instant(), m.nextID
	m.nextID++
	m.noteShared(at)
	m.e.ScheduleMsg(at, m, 0, id, 0, nil)
	m.add(at, id, nil)
}

// rearm re-arms one of the owned records, unless it is queued.
func (m *queueModel) rearm() {
	ev := &m.owned[m.rng.Intn(len(m.owned))]
	if ev.Queued() {
		return
	}
	at, id := m.instant(), m.nextID
	m.nextID++
	m.noteShared(at)
	m.e.Rearm(ev, at, func() { m.fire(id) })
	m.add(at, id, ev)
}

// Positions of a queued event in its run.
const (
	runHead = iota
	runMiddle
	runTail
)

// position returns where the queued event ev sits in its run.
func (m *queueModel) position(ev *Event) int {
	for _, r := range m.e.heap {
		for x := r.head; x != nil; x = x.next {
			switch {
			case x != ev:
			case x == r.head:
				return runHead
			case x.next == nil:
				return runTail
			default:
				return runMiddle
			}
		}
	}
	m.t.Fatalf("queued event at %v is in no run", ev.when)
	return 0
}

// cancel cancels a live handle — closure events and owned records, at any
// position in the queue, with a run's head, middle and tail drawn alike
// where the queue holds them — or, when none is live, an owned record that
// is not queued, which must change nothing.
func (m *queueModel) cancel() {
	var live [3][]int
	for i, en := range m.pending {
		if en.ev != nil {
			p := m.position(en.ev)
			live[p] = append(live[p], i)
		}
	}
	p := m.rng.Intn(3)
	for k := 0; k < 3 && len(live[p]) == 0; k++ {
		p = (p + 1) % 3
	}
	if len(live[p]) == 0 {
		m.owned[m.rng.Intn(len(m.owned))].Cancel()
		return
	}
	m.positions[p]++
	i := live[p][m.rng.Intn(len(live[p]))]
	ev := m.pending[i].ev
	m.pending = slices.Delete(m.pending, i, i+1)
	ev.Cancel()
}

func (m *queueModel) HandleMsg(_ uint8, id, _ int, _ any) { m.fire(id) }

// check compares the engine's clock, its counters and the owned records'
// state with the model after a step.
func (m *queueModel) check(step int, what string) {
	m.t.Helper()
	if got, want := m.e.Pending(), len(m.pending); got != want {
		m.t.Fatalf("step %d (%s): Pending %d, model holds %d", step, what, got, want)
	}
	if got := m.e.Now(); got != m.now {
		m.t.Fatalf("step %d (%s): Now %v, model at %v", step, what, got, m.now)
	}
	if got := m.e.Executed(); got != m.executed {
		m.t.Fatalf("step %d (%s): Executed %d, model fired %d", step, what, got, m.executed)
	}
	for k := range m.owned {
		ev := &m.owned[k]
		queued := slices.ContainsFunc(m.pending, func(en modelEntry) bool { return en.ev == ev })
		if ev.Queued() != queued {
			m.t.Fatalf("step %d (%s): owned record %d Queued() = %v, model says %v", step, what, k, ev.Queued(), queued)
		}
	}
}

// TestQueueMatchesModel drives the engine with seeded random mixes of
// Schedule, ScheduleMsg and Rearm, Cancel of any live event (from the test
// and from inside callbacks), RunUntil at random deadlines and Reset,
// against a reference slice sorted by (when, seq). Every firing must be
// the reference's head at its instant, and Pending and Executed must match
// it after every step. The instants collide in the tail table, so that
// one instant holds several runs; cancels reach a run's head, middle and
// tail; callbacks push into the run being drained; and after a Reset,
// which drops runs of several events, the owned records it dropped are
// re-armed.
func TestQueueMatchesModel(t *testing.T) {
	var shared int
	var positions [3]int
	for seed := uint64(1); seed <= 40; seed++ {
		m := &queueModel{t: t, e: New(), rng: NewRand(seed)}
		for step := 0; step < 1500; step++ {
			var what string
			switch r := m.rng.Intn(100); {
			case r < 25:
				what = "Schedule"
				m.schedule()
			case r < 45:
				what = "ScheduleMsg"
				m.scheduleMsg()
			case r < 55:
				what = "Rearm"
				m.rearm()
			case r < 70:
				what = "Cancel"
				m.cancel()
			case r < 99:
				what = "RunUntil"
				deadline := Time(math.MaxInt64)
				if d := Time(m.rng.Intn(4)); m.rng.Intn(40) != 0 && m.e.Now() <= deadline-d {
					deadline = m.e.Now() + d
				}
				m.e.RunUntil(deadline)
				if len(m.pending) > 0 && m.pending[0].when <= deadline {
					t.Fatalf("seed %d step %d: RunUntil(%v) left event %d at %v unfired", seed, step, deadline, m.pending[0].id, m.pending[0].when)
				}
				m.now = deadline
			default:
				what = "Reset"
				var dropped []*Event
				for k := range m.owned {
					if m.owned[k].Queued() {
						dropped = append(dropped, &m.owned[k])
					}
				}
				m.e.Reset()
				m.pending, m.seq, m.now, m.executed = m.pending[:0], 0, 0, 0
				for _, ev := range dropped {
					at, id := m.instant(), m.nextID
					m.nextID++
					m.e.Rearm(ev, at, func() { m.fire(id) })
					m.add(at, id, ev)
				}
			}
			m.check(step, what)
		}
		if len(m.fired) == 0 {
			t.Fatalf("seed %d fired nothing", seed)
		}
		shared += m.shared
		for p := range positions {
			positions[p] += m.positions[p]
		}
	}
	// The schedules above must reach the cases they are drawn for.
	if shared == 0 || slices.Contains(positions[:], 0) {
		t.Fatalf("second runs at a queued instant: %d; cancels of a head, middle, tail: %v", shared, positions)
	}
}

// TestUnqueuedRecordsHoldNoLink checks that a record which fired, was
// cancelled or was dropped by Reset holds no run link, so that a retained
// handle pins none of the events queued behind it.
func TestUnqueuedRecordsHoldNoLink(t *testing.T) {
	e := New()
	var evs [6]*Event
	noLink := func(what string, evs ...*Event) {
		t.Helper()
		for i, ev := range evs {
			if ev.next != nil || ev.Queued() {
				t.Errorf("%s record %d: queued %v, next %p", what, i, ev.Queued(), ev.next)
			}
		}
	}
	for i := range evs {
		evs[i] = e.Schedule(1, func() {
			if i == 2 {
				noLink("fired", evs[1], evs[2]) // evs[4] is still queued behind
			}
		})
	}
	e.Schedule(2, func() {})
	evs[0].Cancel() // the run's head
	evs[3].Cancel() // a middle event
	evs[5].Cancel() // the tail
	noLink("cancelled", evs[0], evs[3], evs[5])
	if e.Pending() != 4 {
		t.Fatalf("Pending %d after three cancels of seven events, want 4", e.Pending())
	}
	e.RunUntil(1)
	noLink("fired", evs[1], evs[2], evs[4])
	if e.Executed() != 3 || e.Pending() != 1 {
		t.Fatalf("Executed %d, Pending %d at 1ms, want 3 and 1", e.Executed(), e.Pending())
	}

	var owned Event
	for i := range evs {
		evs[i] = e.Schedule(3, func() {})
	}
	e.Rearm(&owned, 3, func() {})
	e.ScheduleMsg(3, &requeue{}, 0, 0, 0, nil)
	e.Reset()
	noLink("dropped", append(evs[:], &owned)...)
	for ev := e.free; ev != nil; ev = ev.next {
		if ev.h != nil {
			t.Fatal("a dropped typed record on the free list holds its handler")
		}
	}
}

// requeue keeps a queue at a fixed depth: every event it handles
// schedules the next one at a delay taken in turn from a table of mixed
// delays, until left runs out.
type requeue struct {
	e      *Engine
	delays []time.Duration
	next   int
	left   int
}

func (r *requeue) HandleMsg(uint8, int, int, any) {
	if r.left <= 0 {
		return
	}
	r.left--
	r.e.AfterMsg(r.delay(), r, 0, 0, 0, nil)
}

func (r *requeue) delay() time.Duration {
	d := r.delays[r.next%len(r.delays)]
	r.next++
	return d
}

// BenchmarkQueue times one pop and one push at a steady queue depth: 19
// and 70 are the mean depths of the fd-steady and wide-topo benchmark
// workloads, 454 is wide-topo's maximum. A push that lands on a queued
// instant joins its run and a pop that leaves events in its run sifts
// nothing, so the ties below set how often the heap is touched at all. The push delays follow the shares
// wide-topo's pushes were measured at: three in four are one CPU cost
// (λ = 1 ms), the rest spread over wire slots, relay hops and WAN delays,
// and a few fire at the same instant. They are whole milliseconds, so that
// events share instants as the simulator's do (in wide-topo 80 % of pops
// leave an event at the same instant at the head, in fd-steady 55 %; here
// 56, 87 and 98 % at the three depths) and the order falls to seq as
// often. The last depth events of a run drain the queue.
func BenchmarkQueue(b *testing.B) {
	const ms = time.Millisecond
	bands := []struct {
		percent int
		lo, hi  time.Duration
	}{
		{76, ms, ms},
		{1, 0, 0},
		{12, ms, 8 * ms},
		{7, 8 * ms, 64 * ms},
		{4, 64 * ms, 256 * ms},
	}
	rng := NewRand(1)
	delays := make([]time.Duration, 4096)
	for i := range delays {
		r := rng.Intn(100)
		for _, band := range bands {
			if r -= band.percent; r < 0 {
				delays[i] = band.lo + time.Duration(rng.Intn(int((band.hi-band.lo)/ms)+1))*ms
				break
			}
		}
	}
	for _, depth := range []int{19, 70, 454} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			e := New()
			r := &requeue{e: e, delays: delays, left: b.N}
			for i := 0; i < depth; i++ {
				e.AfterMsg(r.delay(), r, 0, 0, 0, nil)
			}
			b.ReportAllocs()
			b.ResetTimer()
			e.Run()
		})
	}
}
