// Package rbcast implements reliable broadcast the way the paper's FD
// atomic broadcast uses it (§4.1, footnote 3): an efficient algorithm,
// inspired by Frolund and Pedone's "Revisiting reliable broadcast", that
// costs a single multicast in the common case. Fault tolerance comes from
// lazy relaying: when a process suspects the origin of a message that is
// not yet known to be stable, it re-multicasts that message, so every
// correct process eventually delivers it even if the origin crashed midway
// through its broadcast.
//
// Properties (with a quasi-reliable network and ♦S-complete detectors):
// validity (a correct broadcaster's message is delivered), agreement (if a
// correct process delivers m, all correct processes do) and integrity
// (every message delivered at most once, and only if broadcast).
package rbcast

import (
	"repro/internal/netmodel"
	"repro/internal/proto"
)

// Msg is the wire format of one reliable broadcast. Relays carry the
// original ID and origin, so duplicates collapse at the receiver.
//
// Wire copies travel as *Msg boxes drawn from the sending Broadcaster's
// pool (netmodel.Box), so a broadcast costs no per-message heap
// allocation once the pool is warm. Receivers must copy what they need
// out of the box before returning.
type Msg struct {
	ID   proto.MsgID
	Body any
	netmodel.Box[Msg]
}

// Config wires a Broadcaster to its process.
type Config struct {
	// Self is the local process ID; it becomes the origin of broadcasts.
	Self proto.PID
	// Multicast transmits a Msg box to all processes including the
	// sender. The box is owned by the network layer from this call on.
	Multicast func(m *Msg)
	// Deliver is the upcall on first receipt of each message.
	Deliver func(id proto.MsgID, body any)
}

// Broadcaster is the per-process reliable broadcast endpoint.
type Broadcaster struct {
	cfg       Config
	seq       uint64
	delivered proto.IDTracker
	// unstable holds the bodies of delivered-but-not-stable messages:
	// the relay set. MarkStable prunes it, bounding relay traffic and
	// memory.
	unstable proto.IDTable[any]
	// relayed marks messages this process already re-multicast: one relay
	// per message suffices for agreement, and without the cap a low-TMR
	// suspicion storm would re-relay the same pending messages every few
	// milliseconds.
	relayed proto.IDTracker
	// msgs is the Msg box pool; boxes return to it when their last
	// in-flight copy reaches a terminal point in the network.
	msgs netmodel.Pool[Msg]
}

// New creates a Broadcaster. Both callbacks are required.
func New(cfg Config) *Broadcaster {
	if cfg.Multicast == nil {
		panic("rbcast: nil Multicast")
	}
	if cfg.Deliver == nil {
		panic("rbcast: nil Deliver")
	}
	return &Broadcaster{cfg: cfg, msgs: netmodel.NewPool(func(m *Msg) { m.Body = nil })}
}

// Reset returns the broadcaster to the state New leaves it in, with its
// configuration: no message sent, delivered or relayed. Its tables keep
// their storage and its box pool its free list.
func (b *Broadcaster) Reset() {
	b.delivered.Reset()
	b.unstable.Reset()
	b.relayed.Reset()
	*b = Broadcaster{cfg: b.cfg, delivered: b.delivered, unstable: b.unstable, relayed: b.relayed, msgs: b.msgs}
}

// Reserve sizes the per-origin tables for origins 0..n-1 up front, so the
// first message of each origin does not regrow them. The relay tracker is
// left to grow: it is only written under suspicions.
func (b *Broadcaster) Reserve(n int) {
	b.delivered.Reserve(n)
	b.unstable.Reserve(n)
}

// box draws a Msg box from the pool.
func (b *Broadcaster) box(id proto.MsgID, body any) *Msg {
	m := b.msgs.Get()
	m.ID, m.Body = id, body
	return m
}

// Broadcast reliably broadcasts body and returns the assigned message ID.
// The local copy is delivered through the multicast's self-delivery.
func (b *Broadcaster) Broadcast(body any) proto.MsgID {
	b.seq++
	id := proto.MsgID{Origin: b.cfg.Self, Seq: b.seq}
	b.cfg.Multicast(b.box(id, body))
	return id
}

// OnMessage processes an incoming broadcast or relay copy. Duplicates are
// absorbed silently.
func (b *Broadcaster) OnMessage(m Msg) {
	if !b.delivered.Add(m.ID) {
		return
	}
	b.unstable.Put(m.ID, m.Body)
	b.cfg.Deliver(m.ID, m.Body)
}

// OnSuspect relays every unstable message originated by p that this
// process has not relayed before: the lazy fault-tolerance step. In the
// common (suspicion-free) case it never runs, preserving the
// one-multicast cost; under suspicion storms each message costs this
// process at most one extra multicast.
func (b *Broadcaster) OnSuspect(p proto.PID) {
	// The table walks p's messages in ID order: the multicast order
	// decides how the contended network serialises the relays, so it
	// must not vary between runs.
	b.unstable.EachFrom(p, func(id proto.MsgID, body *any) {
		if b.relayed.Add(id) {
			b.cfg.Multicast(b.box(id, *body))
		}
	})
}

// MarkStable records that id is known to be delivered everywhere it needs
// to be (for the FD algorithm: it was A-delivered, so the consensus
// decision guarantees system-wide receipt). Stable messages are no longer
// relayed and their memory is released.
func (b *Broadcaster) MarkStable(id proto.MsgID) { b.unstable.Delete(id) }

// UnstableCount returns the current relay-set size, for tests and
// diagnostics.
func (b *Broadcaster) UnstableCount() int { return b.unstable.Len() }
