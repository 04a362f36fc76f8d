package proto

// Window is a table over a dense, advancing range of uint64 keys
// [Lo, Hi): consensus instance numbers, the sequence numbers of one
// origin. It is a ring indexed by the key itself, so a lookup is a bounds
// check and a mask where a map hashes, an entry costs no allocation of
// its own, and walking Lo..Hi visits the keys in order — iteration order
// is a property of the container, not of a sort somebody remembered.
//
// Two contracts the callers rely on:
//
//   - A pointer returned by Get or At is valid until the next At. At may
//     grow the ring, which moves every slot; read or write through the
//     pointer at once and look the key up again afterwards.
//   - Keys are dense. Memory is proportional to Hi-Lo, not to the number
//     of slots in use: a gap costs gap-sized memory. State whose keys are
//     sparse belongs in a map, with a comment saying so.
//
// Every key in [Lo, Hi) has a slot, holding the zero T until written; the
// caller's T says whether a slot is in use. The zero Window is empty at
// key 0 and ready for use.
type Window[T any] struct {
	// ring holds key k at ring[k&(len(ring)-1)]; its length is zero or a
	// power of two, and at least hi-lo.
	ring []T
	// Slots of keys outside [lo, hi) hold the zero T, so nothing a caller
	// stored stays reachable after Advance passed it.
	lo, hi uint64
}

// minRing is the first ring size: the tables of a process in steady state
// hold a handful of keys and never grow past it.
const minRing = 8

// Lo returns the lowest key of the range.
func (w *Window[T]) Lo() uint64 { return w.lo }

// Hi returns the key after the highest one of the range.
func (w *Window[T]) Hi() uint64 { return w.hi }

// Get returns the slot of key k, nil when k lies outside [Lo, Hi).
func (w *Window[T]) Get(k uint64) *T {
	if k < w.lo || k >= w.hi {
		return nil
	}
	return &w.ring[k&uint64(len(w.ring)-1)]
}

// At returns the slot of key k, extending the range to cover it: upwards
// from Hi or downwards from Lo, every key in between gaining a zero slot.
// Lo therefore rises only through Advance and falls only through an At
// below it; a caller that treats Lo as a floor checks k against it first.
func (w *Window[T]) At(k uint64) *T {
	lo, hi := w.lo, w.hi
	if lo == hi && k < lo {
		lo, hi = k, k // empty: nothing above k to keep in range
	}
	lo, hi = min(lo, k), max(hi, k+1)
	if hi-lo > uint64(len(w.ring)) {
		w.grow(hi - lo)
	}
	w.lo, w.hi = lo, hi
	return &w.ring[k&uint64(len(w.ring)-1)]
}

// grow moves the live slots to a ring of at least need slots, at least
// doubling it. The old ring is zeroed: it may be a carving of a slab that
// other rings keep alive (IDTable), where it must not pin what it held.
func (w *Window[T]) grow(need uint64) {
	size := max(2*uint64(len(w.ring)), minRing)
	for size < need {
		size *= 2
	}
	ring := make([]T, size)
	for k := w.lo; k < w.hi; k++ {
		ring[k&(size-1)] = w.ring[k&uint64(len(w.ring)-1)]
	}
	clear(w.ring)
	w.ring = ring
}

// Advance raises Lo to lo, forgetting every key below it: their slots are
// zeroed, so what they referenced can be collected. A lo beyond Hi leaves
// the window empty at lo; a lo at or below Lo is a no-op.
func (w *Window[T]) Advance(lo uint64) {
	if lo <= w.lo {
		return
	}
	var zero T
	for k, end := w.lo, min(lo, w.hi); k < end; k++ {
		w.ring[k&uint64(len(w.ring)-1)] = zero
	}
	w.lo, w.hi = lo, max(lo, w.hi)
}

// Reset empties the window back to the zero Window's range, keeping its
// ring for reuse.
func (w *Window[T]) Reset() {
	clear(w.ring)
	*w = Window[T]{ring: w.ring}
}
