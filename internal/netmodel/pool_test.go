package netmodel

import (
	"fmt"
	"testing"
)

// wireMsg is a payload type of the kind the protocols pool.
type wireMsg struct {
	Body any
	Box[wireMsg]
}

// newWirePool returns a pool whose clear hook drops the body and counts
// its runs.
func newWirePool(clears *int) *Pool[wireMsg] {
	p := NewPool(func(m *wireMsg) {
		m.Body = nil
		*clears++
	})
	return &p
}

// Once a message has been recycled, drawing, naming and recycling it
// again allocates nothing.
func TestPoolWarmGetAllocatesNothing(t *testing.T) {
	var clears int
	p := newWirePool(&clears)
	Discard(p.Get())
	allocs := testing.AllocsPerRun(100, func() {
		m := p.Get()
		_ = m.String()
		m.Retain(2)
		m.Release()
		m.Release()
	})
	if allocs != 0 {
		t.Fatalf("warm Get/String/Retain/Release allocates %v times, want 0", allocs)
	}
}

// A message with three copies returns to its pool once, after the third
// release, and the clear hook drops its body on the way.
func TestBoxRecyclesAtLastRelease(t *testing.T) {
	var clears int
	p := newWirePool(&clears)
	m := p.Get()
	m.Body = "payload"
	m.Retain(3)
	m.Release()
	m.Release()
	if len(p.free) != 0 || clears != 0 {
		t.Fatalf("recycled with a copy still in flight: %d free, %d clears", len(p.free), clears)
	}
	m.Release()
	if len(p.free) != 1 || p.free[0] != m || clears != 1 {
		t.Fatalf("after the last release: %d free, %d clears, want the message once", len(p.free), clears)
	}
	if m.Body != nil {
		t.Fatalf("recycled message keeps its body %v", m.Body)
	}
	if p.Get() != m {
		t.Fatal("Get does not reuse the recycled message")
	}
}

// A message built as a literal counts its copies but belongs to no pool.
func TestZeroBoxIsNeverRecycled(t *testing.T) {
	m := &wireMsg{Body: "kept"}
	m.Retain(2)
	m.Release()
	m.Release()
	Discard(m)
	if m.Body != "kept" || m.refs != 0 {
		t.Fatalf("zero box after release: body %v, refs %d", m.Body, m.refs)
	}
}

// Discard returns a drawn message the network never saw.
func TestDiscardReturnsFreshBoxToPool(t *testing.T) {
	var clears int
	p := newWirePool(&clears)
	m := p.Get()
	m.Body = "unsent"
	Discard(m)
	if len(p.free) != 1 || p.free[0] != m || clears != 1 {
		t.Fatalf("Discard: %d free, %d clears, want the message once", len(p.free), clears)
	}
}

// Boxes render in traces as the %T of their payload type.
func TestBoxStringIsTypeName(t *testing.T) {
	var clears int
	got := PayloadName(newWirePool(&clears).Get())
	if want := fmt.Sprintf("%T", wireMsg{}); got != want {
		t.Fatalf("PayloadName = %q, want %q", got, want)
	}
	if got := (&wireMsg{}).String(); got != "netmodel.wireMsg" {
		t.Fatalf("zero box String = %q", got)
	}
}
