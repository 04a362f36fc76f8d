//go:build !race

// Allocation counts of the tables and timers. The race detector
// instruments allocation itself, so the file is excluded under -race.
package proto

import (
	"testing"
	"time"

	"repro/internal/fd"
)

// TestIDTableFirstRingsAllocs: rows take their first rings from shared
// slabs that double as origins appear, so the first entries of 32 origins
// cost the row index and six slabs (of 1, 1, 2, 4, 8 and 16 rings), not a
// ring each.
func TestIDTableFirstRingsAllocs(t *testing.T) {
	const origins = 32
	allocs := testing.AllocsPerRun(8, func() {
		var tab IDTable[any]
		tab.Reserve(origins)
		for o := 0; o < origins; o++ {
			tab.Put(MsgID{Origin: PID(o), Seq: 1}, o)
		}
	})
	if allocs > 8 {
		t.Fatalf("first entries of %d origins: %.0f allocs", origins, allocs)
	}
}

// TestIDTrackerReserveAllocs: with the watermarks sized up front, in-order
// IDs of every origin cost one allocation, the watermarks themselves.
func TestIDTrackerReserveAllocs(t *testing.T) {
	const origins = 32
	allocs := testing.AllocsPerRun(8, func() {
		var tr IDTracker
		tr.Reserve(origins)
		for seq := uint64(1); seq <= 3; seq++ {
			for o := 0; o < origins; o++ {
				tr.Add(MsgID{Origin: PID(o), Seq: seq})
			}
		}
	})
	if allocs > 1 {
		t.Fatalf("in-order IDs of %d origins after Reserve: %.0f allocs", origins, allocs)
	}
}

// TestAlarmRearmAllocs: an alarm that re-arms itself from its callback
// reuses its one event record, so a virtual second of firings allocates
// nothing.
func TestAlarmRearmAllocs(t *testing.T) {
	sys, _ := build(1, fd.QoS{})
	sys.Start()
	fired := 0
	var alarm *Alarm
	alarm = sys.Proc(0).NewAlarm(func() {
		fired++
		alarm.Arm(time.Millisecond)
	})
	alarm.Arm(time.Millisecond)
	second := func() { sys.Eng.RunUntil(sys.Eng.Now().Add(time.Second)) }
	second()
	allocs := testing.AllocsPerRun(4, second)
	if fired < 1000 {
		t.Fatalf("alarm fired %d times in the first virtual second, want 1000", fired)
	}
	if allocs > 0 {
		t.Fatalf("re-armed alarm: %.0f allocs per virtual second (1000 firings), budget 0", allocs)
	}
}
