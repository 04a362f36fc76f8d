package groups

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/ctabcast"
	"repro/internal/fd"
	"repro/internal/netmodel"
	"repro/internal/proto"
	"repro/internal/sim"
)

// rig is a real proto.System whose processes run Routers over FD
// atomic-broadcast instances. Every process's root handler is a tap that
// logs what the network hands it before the Router sees it, so the tests
// below assert on messages sent and deliveries made, never on Router
// fields.
type rig struct {
	t     *testing.T
	sys   *proto.System
	m     *GroupMap
	coord *Coordinator
	// wire logs the group layer's own traffic (grams, proposals, requests,
	// finals) as received, in arrival order; envelopes counts the
	// instances' protocol traffic.
	wire      []wireMsg
	envelopes int
	delivered map[proto.PID][]proto.MsgID
}

type wireMsg struct {
	from, to proto.PID
	msg      string // the payload's String()
}

type tap struct {
	proto.Handler
	rig  *rig
	self proto.PID
}

func (tp *tap) OnMessage(from proto.PID, payload any) {
	if _, ok := payload.(*envelope); ok {
		tp.rig.envelopes++
	} else {
		tp.rig.wire = append(tp.rig.wire, wireMsg{from, tp.self, netmodel.PayloadName(payload)})
	}
	tp.Handler.OnMessage(from, payload)
}

func newRig(t *testing.T, m *GroupMap) *rig {
	t.Helper()
	g := &rig{t: t, m: m, delivered: make(map[proto.PID][]proto.MsgID)}
	g.sys = proto.NewSystem(sim.New(), netmodel.DefaultConfig(m.N()), fd.QoS{}, sim.NewRand(7))
	factory := func(ic InstanceConfig) Endpoint {
		proc := ctabcast.New(ic.Runtime, ctabcast.Config{
			Deliver:  func(_ proto.MsgID, body any) { ic.Deliver(body) },
			Renumber: true,
		})
		return Endpoint{Handler: proc, ABroadcast: proc.ABroadcast, Resume: proc.Resume}
	}
	g.coord = NewCoordinator(g.sys, m, nil, factory, func(p proto.PID, id proto.MsgID, _ any, _ sim.Time) {
		g.delivered[p] = append(g.delivered[p], id)
	})
	for p := 0; p < m.N(); p++ {
		pid := proto.PID(p)
		g.sys.SetHandler(pid, &tap{Handler: g.coord.NewRouter(g.sys.Proc(pid)), rig: g, self: pid})
	}
	g.sys.Start()
	return g
}

// run advances virtual time by d. The tests never run to idle: a process
// with a stalled queue re-arms its probe forever.
func (g *rig) run(d time.Duration) { g.sys.Eng.RunUntil(g.sys.Eng.Now().Add(d)) }

func (g *rig) multicast(p proto.PID, dests ...int) proto.MsgID {
	return g.coord.Router(p).Multicast(dests, fmt.Sprintf("body of %d", p))
}

// replies has process from ask process to about id and returns what came
// back, in arrival order.
func (g *rig) replies(from, to proto.PID, id proto.MsgID) []string {
	g.wire = g.wire[:0]
	g.sys.Proc(from).Send(to, &tsReq{id: id})
	g.run(20 * time.Millisecond)
	var out []string
	for _, w := range g.wire {
		if w.from == to && w.to == from {
			out = append(out, w.msg)
		}
	}
	return out
}

func (g *rig) wantReplies(from, to proto.PID, id proto.MsgID, want ...string) {
	g.t.Helper()
	if got := g.replies(from, to, id); !reflect.DeepEqual(got, want) {
		g.t.Errorf("process %d asked by %d about %s answered %q, want %q", to, from, id, got, want)
	}
}

// wantDelivered asserts that exactly the listed processes delivered id,
// each once.
func (g *rig) wantDelivered(id proto.MsgID, at ...proto.PID) {
	g.t.Helper()
	want := make(map[proto.PID]bool)
	for _, p := range at {
		want[p] = true
	}
	for p := 0; p < g.m.N(); p++ {
		n := 0
		for _, d := range g.delivered[proto.PID(p)] {
			if d == id {
				n++
			}
		}
		w := 0
		if want[proto.PID(p)] {
			w = 1
		}
		if n != w {
			g.t.Errorf("process %d delivered %s %d times, want %d", p, id, n, w)
		}
	}
}

func pids(lo, hi int) []proto.PID {
	var out []proto.PID
	for p := lo; p <= hi; p++ {
		out = append(out, proto.PID(p))
	}
	return out
}

// delivered62 builds the state most cases start from: Disjoint(6, 2),
// two shard-local messages in group 1 and then one message from process
// 0 to both groups, delivered everywhere. Group 0 proposed 1, group 1
// proposed 3, so its final timestamp is 3.
func delivered62(t *testing.T) (*rig, proto.MsgID) {
	g := newRig(t, Disjoint(6, 2))
	g.multicast(3, 1)
	g.multicast(3, 1)
	g.run(100 * time.Millisecond)
	id := g.multicast(0, 0, 1)
	g.run(200 * time.Millisecond)
	g.wantDelivered(id, pids(0, 5)...)
	return g, id
}

// A request for a delivered id answers tsFinal with its timestamp,
// whichever side of the message the responder was on; an id the
// responder never heard of answers nothing.
func TestTSReqDeliveredAndUnknown(t *testing.T) {
	g, id := delivered62(t)
	g.wantReplies(1, 4, id, "tsfinal 0:1@3")
	g.wantReplies(4, 1, id, "tsfinal 0:1@3")
	g.wantReplies(1, 4, proto.MsgID{Origin: 2, Seq: 9})
	g.wantReplies(1, 4, proto.MsgID{Origin: 0, Seq: 2})
}

// A request for a pending id whose body is here answers one tsProp per
// destination group whose proposal is known, in dests order. Group 2 is
// partitioned away and never proposes, so the message stays pending at
// groups 0 and 1 with two of three proposals; after the heal, stall
// recovery (the gram resent from a held body, tsReq, tsProp and tsFinal
// replies) completes it at all nine processes.
func TestTSReqPendingWithBodyThenRecovery(t *testing.T) {
	g := newRig(t, Disjoint(9, 3))
	g.multicast(3, 1)
	g.multicast(3, 1)
	g.run(100 * time.Millisecond)
	g.sys.Partition([][]proto.PID{pids(0, 5), pids(6, 8)})
	id := g.multicast(0, 0, 1, 2)
	g.run(100 * time.Millisecond)

	g.wantReplies(1, 4, id, "tsprop 0:1 g0@1", "tsprop 0:1 g1@3")
	g.wantReplies(4, 1, id, "tsprop 0:1 g0@1", "tsprop 0:1 g1@3")
	g.wantDelivered(id)

	g.sys.Heal()
	g.run(2 * time.Second)
	g.wantDelivered(id, pids(0, 8)...)
	g.wantReplies(1, 7, id, "tsfinal 0:1@3")
	// The queues drained: a later message is not stuck behind anything.
	next := g.multicast(8, 0, 2)
	g.run(500 * time.Millisecond)
	g.wantDelivered(next, 0, 1, 2, 6, 7, 8)
}

// Proposals that arrive before the body are kept (first copy wins) and a
// request answers one tsProp per known group in ascending group id,
// whatever order they came in.
func TestTSReqProposalsBeforeBody(t *testing.T) {
	g := newRig(t, Disjoint(9, 3))
	id := proto.MsgID{Origin: 8, Seq: 40}
	for _, p := range []*tsProp{{id, 2, 7}, {id, 0, 5}, {id, 2, 9}} {
		g.sys.Proc(0).Send(4, p)
	}
	g.run(20 * time.Millisecond)
	g.wantReplies(0, 4, id, "tsprop 8:40 g0@5", "tsprop 8:40 g2@7")
	g.wantReplies(0, 5, id)
	g.wantDelivered(id)
}

// Late duplicates of a delivered message's gram, proposal and final
// change nothing: no instance takes a step, nothing is sent, nothing is
// delivered again, the recorded timestamp stands and later messages are
// not held up.
func TestLateDuplicatesOfDelivered(t *testing.T) {
	g, id := delivered62(t)
	before := g.envelopes
	g.wire = g.wire[:0]
	for _, to := range []proto.PID{3, 4} { // 3 would initiate at once, 4 after a fallback delay
		g.sys.Proc(1).Send(to, &gmsg{id: id, from: 0, dests: []int{0, 1}, body: "again"})
		g.sys.Proc(1).Send(to, &tsProp{id: id, gid: 0, ts: 9})
		g.sys.Proc(1).Send(to, &tsFinal{id: id, ts: 11})
	}
	g.run(time.Second)
	if g.envelopes != before {
		t.Errorf("duplicates caused %d protocol messages", g.envelopes-before)
	}
	if len(g.wire) != 6 {
		t.Errorf("duplicates caused group-layer traffic beyond the 6 injected: %v", g.wire)
	}
	g.wantDelivered(id, pids(0, 5)...)
	g.wantReplies(1, 3, id, "tsfinal 0:1@3")
	g.wantReplies(1, 4, id, "tsfinal 0:1@3")

	next := g.multicast(5, 0, 1)
	g.run(200 * time.Millisecond)
	g.wantDelivered(next, pids(0, 5)...)
	for p := 0; p < 6; p++ {
		got := g.delivered[proto.PID(p)]
		if tail := got[len(got)-2:]; tail[0] != id || tail[1] != next {
			t.Errorf("process %d delivered %v, want it to end with %s, %s", p, got, id, next)
		}
	}
}

// A pending record recycled from a delivered message shows nothing of its
// previous life — no proposal, body, destination list or final timestamp:
// the next id to take it starts unknown in every group and stays pending.
func TestRecycledRecordStartsEmpty(t *testing.T) {
	g, _ := delivered62(t) // every process released a record that held g0@1 and g1@3
	id := proto.MsgID{Origin: 5, Seq: 70}
	for _, to := range []proto.PID{1, 4} {
		g.sys.Proc(0).Send(to, &tsProp{id: id, gid: 0, ts: 5})
	}
	g.run(20 * time.Millisecond)
	g.wantReplies(0, 1, id, "tsprop 5:70 g0@5")
	g.wantReplies(0, 4, id, "tsprop 5:70 g0@5")
	g.wantDelivered(id)
}
