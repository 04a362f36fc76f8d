package proto

// Slab hands out storage that is never handed out twice. Each carve is a
// capped slice of the current chunk, so appending to it cannot reach a
// neighbour; a chunk too short for a carve is left to the carves already
// cut from it and replaced by one twice as long, between lo and hi. A
// value carved here — a consensus proposal, a view change's members, a
// flush set — may be decided, logged, forwarded and buffered by every
// process at once, and still needs no reference count: nothing ever
// writes its storage again, across a Reset of its owner too, which keeps
// the slab as it is.
//
// The rule the protocols follow: whatever a receiver keeps after its
// handler returns is carved from a slab; whatever is used up inside the
// handler travels in a pooled box (netmodel.Box).
type Slab[T any] struct {
	free []T // uncarved rest of the current chunk
	size int // length of the current chunk
}

// Carve returns n fresh elements. A carve longer than hi gets a chunk of
// its own.
func (s *Slab[T]) Carve(n, lo, hi int) []T {
	if len(s.free) < n {
		s.size = min(max(2*s.size, lo), hi)
		s.free = make([]T, max(n, s.size))
	}
	c := s.free[:n:n]
	s.free = s.free[n:]
	return c
}
