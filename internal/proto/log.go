package proto

// Log is the bounded recovery log both atomic broadcast stacks keep: the
// FD stack's decided batches, the GM stack's deliveries. It holds the
// entries at positions [Start, Next), one per position, and serves a
// process that fell behind the suffix it missed — or, once that suffix
// has been trimmed away, everything it still holds and the news that
// there is a gap, which the stack covers with a snapshot of its delivered
// set (the documented delivery gap, docs/ARCHITECTURE.md).
//
// The zero value is an empty log at position 0 that keeps nothing: set
// Retain before the first Append.
type Log[E any] struct {
	// Retain is how many entries a trim keeps. Append trims once the log
	// holds half as many again, compacting in place, so a log that has
	// reached its working size appends without allocating.
	Retain  int
	start   uint64
	entries []E
}

// Start returns the position of the oldest retained entry.
func (l *Log[E]) Start() uint64 { return l.start }

// Next returns the position the next Append takes.
func (l *Log[E]) Next() uint64 { return l.start + uint64(len(l.entries)) }

// Append adds e at position Next, trimming the oldest entries down to
// Retain once the log holds 1.5·Retain.
func (l *Log[E]) Append(e E) {
	l.entries = append(l.entries, e)
	if len(l.entries) <= l.Retain+l.Retain/2 {
		return
	}
	drop := len(l.entries) - l.Retain
	n := copy(l.entries, l.entries[drop:])
	clear(l.entries[n:]) // release what the dropped entries referenced
	l.entries = l.entries[:n]
	l.start += uint64(drop)
}

// Suffix returns the entries from position from on and the position of
// the first of them: from itself, or Next when from lies beyond the log.
// When from lies below Start, the entries it asks for are gone, and
// Suffix returns every retained entry with gap set. The entries are the
// log's own storage, valid until the next Append, Adopt or Reset.
func (l *Log[E]) Suffix(from uint64) (start uint64, entries []E, gap bool) {
	if from < l.start {
		return l.start, l.entries, true
	}
	i := min(from-l.start, uint64(len(l.entries)))
	return l.start + i, l.entries[i:], false
}

// Adopt makes a handed-over window the log: a copy of entries, in the
// log's own storage, at positions from start on.
func (l *Log[E]) Adopt(start uint64, entries []E) {
	old := len(l.entries)
	l.entries = append(l.entries[:0], entries...)
	if len(l.entries) < old {
		clear(l.entries[len(l.entries):old])
	}
	l.start = start
}

// Reset empties the log, keeping its storage and Retain, so that the next
// Append takes position start.
func (l *Log[E]) Reset(start uint64) {
	clear(l.entries)
	l.entries = l.entries[:0]
	l.start = start
}
