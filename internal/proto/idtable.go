package proto

import "slices"

// IDTable is a table keyed by MsgID: one Window of sequence numbers per
// origin, each slot carrying a presence bit. It stands where a hash map
// keyed by MsgID would — origins are 0..n-1 and an origin's sequence
// numbers run 1, 2, … — and it iterates in the canonical MsgID order, the
// order the paper prescribes for delivery and the one every send path
// needs to stay deterministic, without collecting and sorting keys.
//
// Window's two contracts carry over: a pointer returned by Get or handed
// to an Each callback is valid until the next Put, and a row spans its
// lowest to its highest live sequence number, so a gap costs gap-sized
// memory. Delete keeps a row's lower end at its first live entry, so a
// table whose entries come and go roughly in order stays a few slots per
// origin however far the sequence numbers have run. The zero IDTable is
// empty and ready for use.
//
// A row gets its first ring when its origin's first entry arrives, carved
// from a slab the table shares between its rows: each new slab holds as
// many rings as the table has carved so far, so k origins cost about
// log2(k) allocations instead of k, and origins never heard from cost
// nothing. A ring that outgrows its carving moves to a ring of its own.
type IDTable[T any] struct {
	rows   []Window[idSlot[T]] // by origin
	slab   []idSlot[T]         // uncarved rest of the current slab
	carved int                 // rings carved so far
	n      int
}

type idSlot[T any] struct {
	v  T
	ok bool
}

// Len returns the number of entries.
func (t *IDTable[T]) Len() int { return t.n }

// Reserve makes room in the row index for origins 0..n-1, so the first
// entry of each origin does not regrow it. Rings are not reserved.
func (t *IDTable[T]) Reserve(n int) {
	t.rows = slices.Grow(t.rows, max(0, n-len(t.rows)))
}

// Reset empties the table, keeping every row's ring and the slab for
// reuse: a table emptied this way takes its next entries without
// allocating what it already grew once.
func (t *IDTable[T]) Reset() {
	for i := range t.rows {
		t.rows[i].Reset()
	}
	*t = IDTable[T]{rows: t.rows, slab: t.slab, carved: t.carved}
}

// slot returns id's slot, in use or not; nil when its row does not reach
// that far.
func (t *IDTable[T]) slot(id MsgID) *idSlot[T] {
	if uint(id.Origin) >= uint(len(t.rows)) {
		return nil
	}
	return t.rows[id.Origin].Get(id.Seq)
}

// Get returns the value stored under id, nil when there is none.
func (t *IDTable[T]) Get(id MsgID) *T {
	if s := t.slot(id); s != nil && s.ok {
		return &s.v
	}
	return nil
}

// Put stores v under id, replacing any previous value.
func (t *IDTable[T]) Put(id MsgID, v T) {
	for int(id.Origin) >= len(t.rows) {
		t.rows = append(t.rows, Window[idSlot[T]]{})
	}
	row := &t.rows[id.Origin]
	if row.ring == nil {
		row.ring = t.carve()
	}
	if row.Lo() == row.Hi() {
		row.Advance(id.Seq) // an empty row restarts at id, whatever it held before
	}
	s := row.At(id.Seq)
	if !s.ok {
		s.ok = true
		t.n++
	}
	s.v = v
}

// carve cuts a first ring for a new row off the slab. When the slab runs
// out, the next one holds as many rings as have been carved so far.
func (t *IDTable[T]) carve() []idSlot[T] {
	if len(t.slab) < minRing {
		t.slab = make([]idSlot[T], minRing*max(1, t.carved))
	}
	t.carved++
	ring := t.slab[:minRing:minRing]
	t.slab = t.slab[minRing:]
	return ring
}

// Delete removes id's entry, if any, zeroing its slot, and moves the row's
// lower end past the holes that leaves.
func (t *IDTable[T]) Delete(id MsgID) {
	s := t.slot(id)
	if s == nil || !s.ok {
		return
	}
	*s = idSlot[T]{}
	t.n--
	row := &t.rows[id.Origin]
	if id.Seq != row.Lo() {
		return
	}
	lo := id.Seq + 1
	for lo < row.Hi() && !row.Get(lo).ok {
		lo++
	}
	row.Advance(lo)
}

// Each calls fn for every entry in canonical MsgID order. fn may Delete
// any entry, the one it was handed included; it must not Put.
func (t *IDTable[T]) Each(fn func(id MsgID, v *T)) {
	for origin := range t.rows {
		t.EachFrom(PID(origin), fn)
	}
}

// EachFrom is Each over the entries of one origin.
func (t *IDTable[T]) EachFrom(origin PID, fn func(id MsgID, v *T)) {
	if uint(origin) >= uint(len(t.rows)) {
		return
	}
	row := &t.rows[origin]
	for seq, hi := row.Lo(), row.Hi(); seq < hi; seq++ {
		// Looked up afresh each time: fn may have advanced the row.
		if s := row.Get(seq); s != nil && s.ok {
			fn(MsgID{Origin: origin, Seq: seq}, &s.v)
		}
	}
}
