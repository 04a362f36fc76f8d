package proto

import "slices"

// IDTracker is a duplicate-suppression set for MsgIDs with O(1) steady-state
// memory: per-origin sequence numbers are absorbed into a contiguous
// watermark as they complete, and only out-of-order IDs occupy the sparse
// overflow table. Message sequence numbers start at 1.
//
// The zero value is an empty tracker.
type IDTracker struct {
	water  []uint64 // by origin; origins not reached yet read 0
	sparse IDTable[struct{}]
}

// NewIDTracker returns an empty tracker.
func NewIDTracker() *IDTracker { return &IDTracker{} }

// Reserve makes room for the watermarks of origins 0..n-1, so the first ID
// of each origin does not regrow them. The out-of-order table, which most
// origins never use, still grows on demand.
func (t *IDTracker) Reserve(n int) {
	t.water = slices.Grow(t.water, max(0, n-len(t.water)))
}

// Reset empties the tracker, keeping its storage for reuse.
func (t *IDTracker) Reset() {
	clear(t.water)
	t.sparse.Reset()
	*t = IDTracker{water: t.water, sparse: t.sparse}
}

// watermark returns the sequence number of origin p up to which every ID
// has been added.
func (t *IDTracker) watermark(p PID) uint64 {
	if int(p) < len(t.water) {
		return t.water[p]
	}
	return 0
}

// Seen reports whether id was added before.
func (t *IDTracker) Seen(id MsgID) bool {
	return id.Seq <= t.watermark(id.Origin) || t.sparse.Get(id) != nil
}

// Add inserts id and reports whether it was newly added (false on
// duplicates).
func (t *IDTracker) Add(id MsgID) bool {
	if t.Seen(id) {
		return false
	}
	if id.Seq != t.watermark(id.Origin)+1 {
		t.sparse.Put(id, struct{}{})
		return true
	}
	t.raise(id.Origin, id.Seq)
	return true
}

// raise lifts origin p's watermark to w, which it must not lower, and
// absorbs the sparse successors that have become contiguous.
func (t *IDTracker) raise(p PID, w uint64) {
	for int(p) >= len(t.water) {
		t.water = append(t.water, 0)
	}
	for next := p.pair(w + 1); t.sparse.Get(next) != nil; next.Seq++ {
		t.sparse.Delete(next)
		w++
	}
	t.water[p] = w
}

// SparseLen returns the number of out-of-order IDs currently held, for
// memory diagnostics in tests.
func (t *IDTracker) SparseLen() int { return t.sparse.Len() }

// TrackerSnapshot is a copied, point-in-time view of an IDTracker,
// shippable to another process: the full-snapshot fallback of the FD
// catch-up protocol and GM's state transfer beyond the log hand one over
// when the log no longer covers a straggler's gap. Water is indexed by
// origin and Sparse is in canonical MsgID order, so the snapshot and its
// merge are deterministic.
type TrackerSnapshot struct {
	Water  []uint64
	Sparse []MsgID
}

// Snapshot copies the tracker's current state. The copy shares nothing
// with the tracker and never changes afterwards.
func (t *IDTracker) Snapshot() *TrackerSnapshot {
	s := &TrackerSnapshot{Water: slices.Clone(t.water), Sparse: make([]MsgID, 0, t.sparse.Len())}
	t.sparse.Each(func(id MsgID, _ *struct{}) { s.Sparse = append(s.Sparse, id) })
	return s
}

// Merge folds a snapshot into the tracker: afterwards every ID the
// snapshot covered reports Seen. Watermarks advance monotonically (a
// merge never forgets local state) and sparse entries the new watermarks
// cover are dropped.
func (t *IDTracker) Merge(s *TrackerSnapshot) {
	for i, w := range s.Water {
		p := PID(i)
		if w <= t.watermark(p) {
			continue
		}
		t.sparse.EachFrom(p, func(id MsgID, _ *struct{}) {
			if id.Seq <= w {
				t.sparse.Delete(id)
			}
		})
		t.raise(p, w)
	}
	for _, id := range s.Sparse {
		t.Add(id)
	}
}

// pair builds a MsgID; a tiny helper keeping call sites terse.
func (p PID) pair(seq uint64) MsgID { return MsgID{Origin: p, Seq: seq} }
