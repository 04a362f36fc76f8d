package netmodel

import "reflect"

// Box is the Pooled bookkeeping a wire message type T embeds: the count
// of in-flight copies, the Pool the message returns to when the last
// copy reaches its terminal point, and the message itself, since Box sits
// inside T at an offset it cannot know. A box obtained from Pool.Get is
// recycled; a zero Box — a message built as a plain literal — counts its
// copies but never returns anywhere.
//
// Through embedding, *T implements Pooled and fmt.Stringer.
type Box[T any] struct {
	refs int32
	pool *Pool[T]
	self *T
}

// Retain implements Pooled.
func (b *Box[T]) Retain(n int) { b.refs += int32(n) }

// Release implements Pooled: at zero references a pooled box goes back
// to its Pool.
func (b *Box[T]) Release() {
	if b.refs--; b.refs == 0 && b.pool != nil {
		b.pool.Put(b.self)
	}
}

// String names the payload in traces by its type, "pkg.T": what %T
// printed when messages travelled as values. A type that names its inner
// message instead declares its own String.
func (b *Box[T]) String() string { return reflect.TypeOf((*T)(nil)).Elem().String() }

// box gives Pool.Get the Box embedded in a fresh *T.
func (b *Box[T]) box() *Box[T] { return b }

// Pool is the free list of one owner's wire messages of type T, which
// must embed Box[T]. The zero Pool is ready to use and keeps every field
// of a recycled message; NewPool adds the type's clear hook.
type Pool[T any] struct {
	free  []*T
	clear func(*T)
}

// NewPool returns a pool whose Put runs clear on each returned message
// first, dropping the references — a body, an inner message — the free
// list must not keep alive. Each type has one hook, set by the package
// that owns the type.
func NewPool[T any](clear func(*T)) Pool[T] { return Pool[T]{clear: clear} }

// Get returns a message with no references, allocating only when the
// free list is dry. The caller fills in the message's fields.
func (p *Pool[T]) Get() *T {
	if n := len(p.free); n > 0 {
		m := p.free[n-1]
		p.free = p.free[:n-1]
		return m
	}
	m := new(T)
	b := any(m).(interface{ box() *Box[T] }).box()
	b.pool, b.self = p, m
	return m
}

// Put returns m to the free list. Release calls it at zero references; a
// sender that draws a message and then finds nothing to send returns it
// directly.
func (p *Pool[T]) Put(m *T) {
	if p.clear != nil {
		p.clear(m)
	}
	p.free = append(p.free, m)
}
