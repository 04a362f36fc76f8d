package groups

import (
	"fmt"
	"reflect"
	"slices"
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
	// hist is the specification history of every multicast and delivery.
	hist *proto.History
	// inits logs every gram a process a-broadcast into one of its group
	// instances; groupDelivered, when set, sees every body an instance
	// delivers, before the Router does; resume holds each process's
	// instances' catch-up hooks, for recoveries.
	inits          []initiation
	groupDelivered func(body any)
	resume         [][]func()
}

type wireMsg struct {
	from, to proto.PID
	msg      string // the payload's String()
	at       sim.Time
}

type initiation struct {
	by  proto.PID
	gid int
	id  proto.MsgID
	at  sim.Time
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
		tp.rig.wire = append(tp.rig.wire, wireMsg{from, tp.self, netmodel.PayloadName(payload), tp.rig.sys.Eng.Now()})
	}
	tp.Handler.OnMessage(from, payload)
}

func newRig(t *testing.T, m *GroupMap) *rig {
	t.Helper()
	g := &rig{t: t, m: m, delivered: make(map[proto.PID][]proto.MsgID), hist: proto.NewHistory(m.N()), resume: make([][]func(), m.N())}
	g.sys = proto.NewSystem(sim.New(), netmodel.DefaultConfig(m.N()), fd.QoS{}, sim.NewRand(7))
	factory := func(ic InstanceConfig) Endpoint {
		self := ic.Members[ic.Local]
		proc := ctabcast.New(ic.Runtime, ctabcast.Config{
			Deliver: func(_ proto.MsgID, body any) {
				if g.groupDelivered != nil {
					g.groupDelivered(body)
				}
				ic.Deliver(body)
			},
			Renumber: true,
		})
		g.resume[self] = append(g.resume[self], proc.Resume)
		abcast := func(body any) proto.MsgID {
			if gm, ok := body.(*gmsg); ok {
				g.inits = append(g.inits, initiation{self, ic.Group, gm.id, g.sys.Eng.Now()})
			}
			return proc.ABroadcast(body)
		}
		return Endpoint{Handler: proc, ABroadcast: abcast, Resume: proc.Resume}
	}
	g.coord = NewCoordinator(g.sys, m, nil, factory, func(p proto.PID, id proto.MsgID, _ any, _ sim.Time) {
		g.delivered[p] = append(g.delivered[p], id)
		g.hist.Deliver(p, id)
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
	id := g.coord.Router(p).Multicast(dests, fmt.Sprintf("body of %d", p))
	var to []proto.PID
	for _, gid := range dests {
		to = append(to, g.m.Members(gid)...)
	}
	g.hist.Multicast(id, to)
	return id
}

// recover revives crashed process p in place and arms its instances'
// catch-up probes, the way the experiment layer recovers an FD process.
func (g *rig) recover(p proto.PID) {
	g.sys.Recover(p, nil)
	for _, resume := range g.resume[p] {
		resume()
	}
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
	for _, p := range []*tsProp{{id: id, gid: 2, ts: 7}, {id: id, gid: 0, ts: 5}, {id: id, gid: 2, ts: 9}} {
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

// gramCopy is a group-delivered gram as it read when an instance first
// delivered it.
type gramCopy struct {
	id    proto.MsgID
	from  proto.PID
	dests []int
	body  any
}

func copyGram(m *gmsg) gramCopy { return gramCopy{m.id, m.from, slices.Clone(m.dests), m.body} }

func (c gramCopy) matches(m *gmsg) bool {
	return c.id == m.id && c.from == m.from && slices.Equal(c.dests, m.dests) && c.body == m.body
}

func TestRetainedGramsNeverChange(t *testing.T) {
	// A gram and its destination list outlive the handler that received
	// them: every destination instance's decision log keeps the gram, the
	// pending record keeps its destinations and body until delivery, and a
	// fallback timer keeps the gram until it fires. An advance stays in the
	// decision log too. Whatever storage they are built in must therefore
	// never change once sent. Local, two-group and three-group traffic on
	// Disjoint(9, 3), with group 1's lowest member crashed for a second (so
	// the other members' fallbacks initiate) and then recovered in place.
	// Every gram and advance is copied the first time an instance delivers
	// it, compared at every later delivery, and compared again at the end.
	g := newRig(t, Disjoint(9, 3))
	grams := make(map[*gmsg]gramCopy)
	advances := make(map[*advance]uint64)
	g.groupDelivered = func(body any) {
		switch b := body.(type) {
		case *gmsg:
			if c, ok := grams[b]; !ok {
				grams[b] = copyGram(b)
			} else if !c.matches(b) {
				t.Errorf("gram %s changed between deliveries: %+v, first delivered as %+v", c.id, *b, c)
			}
		case *advance:
			if ts, ok := advances[b]; !ok {
				advances[b] = b.ts
			} else if ts != b.ts {
				t.Errorf("advance changed between deliveries: @%d, first delivered @%d", b.ts, ts)
			}
		}
	}

	const msgs, crashed = 900, proto.PID(3)
	start := g.sys.Eng.Now()
	sent := 0
	for i := 0; i < msgs; i++ {
		p := proto.PID(i % 9)
		home := int(p) / 3
		dests := []int{home}
		switch i % 3 {
		case 1:
			dests = append(dests, (home+1+i/9%2)%3)
		case 2:
			dests = []int{0, 1, 2}
		}
		g.sys.Eng.Schedule(start.Add(time.Duration(i)*10*time.Millisecond), func() {
			if !g.sys.Proc(p).Crashed() {
				g.multicast(p, dests...)
				sent++
			}
		})
	}
	g.sys.Eng.Schedule(start.Add(700*time.Millisecond), func() { g.sys.Crash(crashed) })
	g.sys.Eng.Schedule(start.Add(1700*time.Millisecond), func() { g.recover(crashed) })
	g.run(14 * time.Second)

	for m, c := range grams {
		if !c.matches(m) {
			t.Errorf("gram %s changed after its delivery: %+v, delivered as %+v", c.id, *m, c)
		}
	}
	for a, ts := range advances {
		if a.ts != ts {
			t.Errorf("advance changed after its delivery: @%d, delivered @%d", a.ts, ts)
		}
	}
	fallbacks := 0
	for _, in := range g.inits {
		if in.gid == 1 && in.by != crashed && !g.m.Contains(1, in.id.Origin) {
			fallbacks++
		}
	}
	if fallbacks == 0 || len(advances) == 0 || sent < msgs-msgs/9 {
		t.Fatalf("the run did not exercise the fence: %d fallback initiations, %d advances, %d of %d multicasts sent",
			fallbacks, len(advances), sent, msgs)
	}

	// Every destination member other than the recovered one delivered
	// every message once; the recovered one delivered none twice (it may
	// stay stalled: ROADMAP 3g). Any two processes delivered the messages
	// they share in one order.
	if err := g.hist.Check(proto.Order|proto.Destinations, func(p proto.PID) bool { return p != crashed }); err != nil {
		t.Fatal(err)
	}
}

func TestFallbackInitiatesAfterLowestCrash(t *testing.T) {
	// Group 1's lowest member is crashed, so no member initiates process
	// 0's grams into group 1 on arrival. With many grams in flight at once
	// (many fallbacks pending together), member 1 initiates each exactly
	// initFallback after the gram reached it, and member 2, whose fallback
	// fires initFallback later, finds every gram past initiation.
	g := newRig(t, Disjoint(6, 2))
	g.sys.Crash(3)
	g.wire = g.wire[:0]
	const grams = 40
	var ids []proto.MsgID
	for i := 0; i < grams; i++ {
		ids = append(ids, g.multicast(0, 0, 1))
	}
	g.run(time.Second)

	for _, id := range ids {
		g.wantDelivered(id, 0, 1, 2, 4, 5)
		name := fmt.Sprintf("mgram %s d[0 1]", id)
		var arrived []sim.Time
		for _, w := range g.wire {
			if w.to == 4 && w.msg == name {
				arrived = append(arrived, w.at)
			}
		}
		var inits []initiation
		for _, in := range g.inits {
			if in.id == id && in.gid == 1 {
				inits = append(inits, in)
			}
		}
		if len(arrived) != 1 {
			t.Fatalf("%s reached process 4 %d times, want once", id, len(arrived))
		}
		if want := (initiation{4, 1, id, arrived[0].Add(initFallback)}); len(inits) != 1 || inits[0] != want {
			t.Errorf("%s initiated into group 1 as %+v, want only %+v", id, inits, want)
		}
	}
}
