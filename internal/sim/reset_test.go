package sim

import (
	"slices"
	"testing"
)

// TestResetHandleCancelsNothing: a handle to a closure event that was
// still queued when the engine was reset is a removed event. Cancelling it
// afterwards must leave the new heap — closures and typed records
// scheduled since the reset — intact and in order.
func TestResetHandleCancelsNothing(t *testing.T) {
	e := New()
	var got []int
	h := handlerFunc(func(op uint8, _, _ int, _ any) { got = append(got, int(op)) })
	stale := e.Schedule(Time(30), func() { got = append(got, -1) })
	e.ScheduleMsg(Time(20), h, 99, 0, 0, nil)
	e.Schedule(Time(10), func() { got = append(got, -2) })
	e.RunUntil(Time(5))

	e.Reset()
	if e.Now() != 0 || e.Pending() != 0 || e.Executed() != 0 {
		t.Fatalf("after Reset: now %v, %d pending, %d executed; want all zero", e.Now(), e.Pending(), e.Executed())
	}
	e.ScheduleMsg(Time(30), h, 2, 0, 0, nil)
	e.Schedule(Time(10), func() { got = append(got, 0) })
	e.Schedule(Time(20), func() { got = append(got, 1) })
	stale.Cancel()
	if e.Pending() != 3 {
		t.Fatalf("stale Cancel changed the new heap: %d pending, want 3", e.Pending())
	}
	e.Run()
	if want := []int{0, 1, 2}; !slices.Equal(got, want) {
		t.Fatalf("after Reset ran %v, want %v", got, want)
	}
}

// TestResetRecyclesQueuedRecords: typed records still queued at a reset
// return to the free list, so the first replication's warm-up is not
// paid again.
func TestResetRecyclesQueuedRecords(t *testing.T) {
	e := New()
	h := handlerFunc(func(uint8, int, int, any) {})
	for i := 0; i < 16; i++ {
		e.ScheduleMsg(Time(i), h, 0, 0, 0, nil)
	}
	allocs := testing.AllocsPerRun(10, func() {
		e.Reset()
		for i := 0; i < 16; i++ {
			e.ScheduleMsg(Time(i), h, 0, 0, 0, nil)
		}
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocations per reset and refill, want 0", allocs)
	}
}

// TestRearmKeepsScheduleOrder: a re-armed owned record takes its sequence
// number like any other event, so it fires in (when, seq) order beside
// closures and typed records of the same instant — and it may re-arm
// itself from its own callback.
func TestRearmKeepsScheduleOrder(t *testing.T) {
	e := New()
	var got []int
	var own Event
	h := handlerFunc(func(op uint8, _, _ int, _ any) { got = append(got, int(op)) })
	fires := 0
	var tick func()
	tick = func() {
		got = append(got, 10+fires)
		if fires++; fires < 3 {
			e.Rearm(&own, e.Now().Add(5), tick)
		}
	}
	e.Schedule(Time(5), func() { got = append(got, 0) })
	e.Rearm(&own, Time(5), tick)
	e.ScheduleMsg(Time(5), h, 2, 0, 0, nil)
	e.Schedule(Time(10), func() { got = append(got, 3) })
	e.Run()
	if want := []int{0, 10, 2, 3, 11, 12}; !slices.Equal(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	if own.When() != Time(15) {
		t.Fatalf("owned record last fired at %v, want 15", own.When())
	}

	// A cancelled record re-arms; a queued one does not.
	e.Rearm(&own, Time(20), func() { got = append(got, 20) })
	own.Cancel()
	e.Rearm(&own, Time(25), func() { got = append(got, 25) })
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Rearm of a queued record did not panic")
			}
		}()
		e.Rearm(&own, Time(30), func() {})
	}()
	e.Run()
	if got[len(got)-1] != 25 || slices.Contains(got, 20) {
		t.Fatalf("after cancel and re-arm fired %v, want 25 only", got[6:])
	}
}

// TestCancelOwnedRecord covers Cancel on an owned record in each state it
// can be in while not queued — never armed, fired, dropped by a reset —
// and after a cancel: each is a no-op that leaves the heap alone, and the
// record re-arms afterwards.
func TestCancelOwnedRecord(t *testing.T) {
	e := New()
	var got []int
	other := func() { got = append(got, 0) }
	var own Event

	// Never armed: a zero record holds no engine, so it is not queued.
	e.Schedule(Time(10), other)
	own.Cancel()
	if e.Pending() != 1 {
		t.Fatalf("Cancel of a zero record changed the heap: %d pending, want 1", e.Pending())
	}

	// Cancelled, then re-armed: it fires once.
	e.Rearm(&own, Time(5), func() { got = append(got, 5) })
	own.Cancel()
	own.Cancel()
	e.Rearm(&own, Time(7), func() { got = append(got, 7) })
	e.Run()
	if want := []int{7, 0}; !slices.Equal(got, want) {
		t.Fatalf("cancel then re-arm fired %v, want %v", got, want)
	}

	// Fired: cancelling it touches nothing queued since.
	e.Schedule(Time(20), other)
	own.Cancel()
	if e.Pending() != 1 {
		t.Fatalf("Cancel of a fired record changed the heap: %d pending, want 1", e.Pending())
	}

	// Dropped by a reset while queued: cancelling it touches nothing
	// queued on the reset engine, and it re-arms there.
	e.Rearm(&own, Time(30), func() { got = append(got, 30) })
	e.Reset()
	e.Schedule(Time(1), other)
	own.Cancel()
	if e.Pending() != 1 {
		t.Fatalf("Cancel of a record dropped by Reset changed the heap: %d pending, want 1", e.Pending())
	}
	got = got[:0]
	e.Rearm(&own, Time(2), func() { got = append(got, 2) })
	e.Run()
	if want := []int{0, 2}; !slices.Equal(got, want) {
		t.Fatalf("after Reset fired %v, want %v", got, want)
	}
}
