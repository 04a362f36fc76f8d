package proto

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// TestIDTrackerMatchesReferenceSet checks the watermark+sparse tracker
// against a plain map under random add/query sequences.
func TestIDTrackerMatchesReferenceSet(t *testing.T) {
	type op struct {
		Origin uint8
		Seq    uint16
		Query  bool
	}
	f := func(ops []op) bool {
		tracker := NewIDTracker()
		ref := make(map[MsgID]bool)
		for _, o := range ops {
			id := MsgID{Origin: PID(o.Origin % 4), Seq: uint64(o.Seq%64) + 1}
			if o.Query {
				if tracker.Seen(id) != ref[id] {
					return false
				}
				continue
			}
			added := tracker.Add(id)
			if added == ref[id] { // Add returns true iff new
				return false
			}
			ref[id] = true
		}
		for id := range ref {
			if !tracker.Seen(id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestIDTrackerSparseBoundedUnderRandomOrder: whatever the insertion
// order, once a contiguous prefix is complete the sparse set holds only
// the out-of-order tail.
func TestIDTrackerSparseBoundedUnderRandomOrder(t *testing.T) {
	f := func(perm []uint8) bool {
		tracker := NewIDTracker()
		seen := make(map[uint64]bool)
		var seqs []uint64
		for _, p := range perm {
			s := uint64(p%32) + 1
			if !seen[s] {
				seen[s] = true
				seqs = append(seqs, s)
			}
		}
		for _, s := range seqs {
			tracker.Add(MsgID{Origin: 1, Seq: s})
		}
		// If 1..k were all inserted, the sparse set holds at most the
		// non-contiguous remainder.
		k := uint64(0)
		for seen[k+1] {
			k++
		}
		return tracker.SparseLen() <= len(seqs)-int(k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestTrackerSnapshotMergeIsUnion: after merging B's snapshot into A, A
// sees exactly the union of both ID sets — every covered ID and nothing
// more — and a second merge of the same snapshot changes nothing.
func TestTrackerSnapshotMergeIsUnion(t *testing.T) {
	type op struct {
		Origin uint8
		Seq    uint16
		IntoB  bool
	}
	f := func(ops []op) bool {
		a, b := NewIDTracker(), NewIDTracker()
		refA := make(map[MsgID]bool)
		refB := make(map[MsgID]bool)
		for _, o := range ops {
			id := MsgID{Origin: PID(o.Origin % 4), Seq: uint64(o.Seq%64) + 1}
			if o.IntoB {
				b.Add(id)
				refB[id] = true
			} else {
				a.Add(id)
				refA[id] = true
			}
		}
		snap := b.Snapshot()
		for merges := 0; merges < 2; merges++ { // second pass checks idempotence
			a.Merge(snap)
			for origin := PID(0); origin < 4; origin++ {
				// Probe past 64 too: a merge must not invent IDs.
				for seq := uint64(1); seq <= 70; seq++ {
					id := MsgID{Origin: origin, Seq: seq}
					if a.Seen(id) != (refA[id] || refB[id]) {
						return false
					}
				}
			}
		}
		// The donor is untouched by its snapshot being merged elsewhere.
		for origin := PID(0); origin < 4; origin++ {
			for seq := uint64(1); seq <= 70; seq++ {
				id := MsgID{Origin: origin, Seq: seq}
				if b.Seen(id) != refB[id] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSortMsgIDsMatchesTotalOrder: SortMsgIDs agrees with the Less
// relation on random inputs, and Less is a strict total order.
func TestSortMsgIDsMatchesTotalOrder(t *testing.T) {
	f := func(raw []uint16) bool {
		ids := make([]MsgID, len(raw))
		for i, r := range raw {
			ids[i] = MsgID{Origin: PID(r % 5), Seq: uint64(r / 5)}
		}
		SortMsgIDs(ids)
		for i := 1; i < len(ids); i++ {
			if ids[i].Less(ids[i-1]) {
				return false
			}
		}
		// Strictness: a.Less(b) and b.Less(a) never both hold.
		for i := 1; i < len(ids); i++ {
			if ids[i].Less(ids[i-1]) && ids[i-1].Less(ids[i]) {
				return false
			}
		}
		return true
	}
	// A relay batch is a handful of IDs, a replication's Collect sorts
	// every tracked ID at once: draw lengths from both regimes.
	lengths := func(args []reflect.Value, r *rand.Rand) {
		n := r.Intn(64)
		if r.Intn(2) == 0 {
			n = 4096 + r.Intn(4097)
		}
		raw := make([]uint16, n)
		for i := range raw {
			raw[i] = uint16(r.Intn(1 << 16))
		}
		args[0] = reflect.ValueOf(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Values: lengths}); err != nil {
		t.Fatal(err)
	}
}
