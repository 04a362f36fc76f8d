//go:build !race

// Allocation counts of the tables. The race detector instruments
// allocation itself, so the file is excluded under -race.
package proto

import "testing"

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
