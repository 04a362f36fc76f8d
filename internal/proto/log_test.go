package proto

import (
	"slices"
	"testing"
)

// TestLogTrimsInPlace appends through several trims of a log that keeps
// 8: it holds up to 12, and the 13th entry trims it to the newest 8 in
// the array the first trim left. Suffix serves any position from the
// window, Next and beyond it, and below the window with the gap flagged.
func TestLogTrimsInPlace(t *testing.T) {
	l := Log[int]{Retain: 8}
	l.Reset(1)
	var backing *int
	trims := 0
	for k := 1; k <= 60; k++ {
		start := l.Start()
		l.Append(k)
		if l.Next() != uint64(k+1) {
			t.Fatalf("after appending %d: Next %d", k, l.Next())
		}
		if l.Start() == start {
			if l.Next()-l.Start() > 12 {
				t.Fatalf("after appending %d: %d entries held, want at most 12", k, l.Next()-l.Start())
			}
			continue
		}
		trims++
		if (k-13)%5 != 0 || l.Start() != uint64(k-7) {
			t.Fatalf("trim %d at %d: Start %d, want a trim every 5th append from 13 on, keeping 8", trims, k, l.Start())
		}
		_, all, _ := l.Suffix(l.Start())
		if trims > 1 && &all[0] != backing {
			t.Fatalf("trim %d reallocated the log", trims)
		}
		backing = &all[0]
		for _, tc := range []struct {
			from, start uint64
			n           int
			gap         bool
		}{
			{l.Start() + 3, l.Start() + 3, 5, false}, // inside the window
			{l.Next(), l.Next(), 0, false},           // at Next
			{l.Next() + 5, l.Next(), 0, false},       // beyond it
			{l.Start() - 1, l.Start(), 8, true},      // below Start: every retained entry
		} {
			start, entries, gap := l.Suffix(tc.from)
			want := make([]int, tc.n)
			for i := range want {
				want[i] = int(tc.start) + i
			}
			if start != tc.start || gap != tc.gap || !slices.Equal(entries, want) {
				t.Fatalf("trim %d: Suffix(%d) = %d, %v, %v; want %d, %v, %v",
					trims, tc.from, start, entries, gap, tc.start, want, tc.gap)
			}
		}
	}
	if trims < 3 {
		t.Fatalf("%d trims, want at least 3", trims)
	}
}

// TestLogAdopt hands a window over from one log to another: the adopter
// copies it into its own storage at the window's positions, whatever it
// held before, and appends on from the window's end.
func TestLogAdopt(t *testing.T) {
	var from, to Log[string]
	from.Retain, to.Retain = 4, 4
	for _, s := range []string{"a", "b", "c", "d", "e", "f", "g"} {
		from.Append(s)
	}
	to.Append("x")
	start, window, gap := from.Suffix(0)
	if !gap || start != 3 {
		t.Fatalf("Suffix(0) = %d, %v, gap %v; want the window from 3 and a gap", start, window, gap)
	}
	to.Adopt(start, window)
	window[0] = "changed" // the giver's storage, which the adopter must not share
	to.Append("h")
	got, entries, _ := to.Suffix(to.Start())
	if got != 3 || to.Next() != 8 || !slices.Equal(entries, []string{"d", "e", "f", "g", "h"}) {
		t.Fatalf("adopted log = %v from %d to %d, want [d e f g h] from 3 to 8", entries, got, to.Next())
	}
}
