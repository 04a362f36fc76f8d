package netmodel

import (
	"testing"

	"repro/internal/topo"
)

// A set multicast on the full mesh reaches exactly the set's members:
// the local copy immediately, the rest with the usual pipeline costs.
func TestSetMulticastReachesMembersOnly(t *testing.T) {
	h := newHarness(t, DefaultConfig(5))
	set := h.nw.RegisterSet([]int{0, 2, 4})
	h.eng.Schedule(0, func() { h.nw.MulticastSet(0, set, "m") })
	h.eng.Run()
	if len(h.got) != 3 {
		t.Fatalf("got %d deliveries, want 3", len(h.got))
	}
	for _, d := range h.got {
		if d.to != 0 && d.to != 2 && d.to != 4 {
			t.Fatalf("delivered to non-member %d", d.to)
		}
	}
	if at := h.deliveriesTo(0)[0].at; at != ms(0) {
		t.Fatalf("local copy at %v, want immediate", at)
	}
	c := h.nw.Counters()
	if c.Multicasts != 1 || c.Deliveries != 3 {
		t.Fatalf("counters = %+v, want 1 multicast, 3 deliveries", c)
	}
}

// A non-member sender addresses the set like anyone else and gets no
// local copy.
func TestSetMulticastFromNonMember(t *testing.T) {
	h := newHarness(t, DefaultConfig(4))
	set := h.nw.RegisterSet([]int{1, 3})
	h.eng.Schedule(0, func() { h.nw.MulticastSet(0, set, "m") })
	h.eng.Run()
	if len(h.got) != 2 {
		t.Fatalf("got %d deliveries, want 2", len(h.got))
	}
	for _, d := range h.got {
		if d.to == 0 {
			t.Fatalf("non-member sender got a local copy")
		}
	}
}

// On a ring the copy to a far member is relayed through a non-member,
// which forwards without delivering; only the wires on the pruned branch
// are occupied.
func TestSetMulticastRelaysThroughNonMember(t *testing.T) {
	h := newHarness(t, topoConfig(topo.Ring(5)))
	set := h.nw.RegisterSet([]int{0, 2})
	h.eng.Schedule(0, func() { h.nw.MulticastSet(0, set, "m") })
	h.eng.Run()
	if len(h.got) != 2 {
		t.Fatalf("got %d deliveries, want 2 (members only), got %+v", len(h.got), h.got)
	}
	// p1 relays: sender CPU + wire + relay in + relay out + wire + p2 CPU.
	if at := h.deliveriesTo(2)[0].at; at != ms(6) {
		t.Fatalf("far member delivered at %v, want 6ms via relay", at)
	}
	c := h.nw.Counters()
	if c.WireSlots != 2 {
		t.Fatalf("WireSlots = %d, want 2 (pruned branch only)", c.WireSlots)
	}
}

// A crashed non-member relay loses the member subtree behind it as Lost
// copies, not Drops — the relay was never a destination.
func TestSetMulticastCrashedRelayLosesSubtree(t *testing.T) {
	h := newHarness(t, topoConfig(topo.Ring(5)))
	set := h.nw.RegisterSet([]int{0, 2})
	h.nw.Crash(1)
	h.eng.Schedule(0, func() { h.nw.MulticastSet(0, set, "m") })
	h.eng.Run()
	if len(h.got) != 1 || h.got[0].to != 0 {
		t.Fatalf("deliveries = %+v, want only the local copy", h.got)
	}
	c := h.nw.Counters()
	if c.Drops != 0 || c.Lost != 1 {
		t.Fatalf("counters = %+v, want 0 drops, 1 lost (member 2 behind dead relay)", c)
	}
}

// A dead relay costs a unicast and a set multicast the same copy, in the
// same counter: the relay was the target of neither, so the copy behind it
// is Lost, and Drops (a crashed target) stays at zero for both.
func TestCrashedRelayCountsAlikeForUnicastAndSet(t *testing.T) {
	counters := func(send func(nw *Network)) Counters {
		h := newHarness(t, topoConfig(topo.Ring(5)))
		h.nw.Crash(1)
		h.eng.Schedule(0, func() { send(h.nw) })
		h.eng.Run()
		return h.nw.Counters()
	}
	uni := counters(func(nw *Network) { nw.Send(0, 2, "m") })
	set := counters(func(nw *Network) { nw.MulticastSet(0, nw.RegisterSet([]int{0, 2}), "m") })
	if uni.Drops != set.Drops || uni.Lost != set.Lost || uni.Lost != 1 || uni.Drops != 0 {
		t.Fatalf("Send(0, 2) reads %d drops, %d lost; MulticastSet(0, {0 2}) reads %d drops, %d lost; want 0 and 1 for both",
			uni.Drops, uni.Lost, set.Drops, set.Lost)
	}
}

// A crashed member drops its own copy and loses the rest of its subtree.
func TestSetMulticastCrashedMember(t *testing.T) {
	h := newHarness(t, topoConfig(topo.Ring(5)))
	set := h.nw.RegisterSet([]int{0, 1, 2})
	h.nw.Crash(1)
	h.eng.Schedule(0, func() { h.nw.MulticastSet(0, set, "m") })
	h.eng.Run()
	c := h.nw.Counters()
	if c.Drops != 1 || c.Lost != 1 {
		t.Fatalf("counters = %+v, want 1 drop (member 1) + 1 lost (member 2 behind it)", c)
	}
}

// countedPayload tracks its reference count for leak assertions.
type countedPayload struct{ refs, releases int }

func (c *countedPayload) Retain(n int) { c.refs += n }
func (c *countedPayload) Release()     { c.refs--; c.releases++ }

// Pooled payloads addressed to a set are retained once per member copy
// and fully released when every copy lands, including when relays and
// crashes kill part of the tree.
func TestSetMulticastPooledBalance(t *testing.T) {
	for name, crash := range map[string]int{"all-live": -1, "dead-relay": 1, "dead-member": 2} {
		h := newHarness(t, topoConfig(topo.Ring(5)))
		set := h.nw.RegisterSet([]int{0, 2, 3})
		if crash >= 0 {
			h.nw.Crash(crash)
		}
		p := &countedPayload{}
		h.eng.Schedule(0, func() { h.nw.MulticastSet(0, set, p) })
		h.eng.Run()
		if p.refs != 0 {
			t.Fatalf("%s: payload refs = %d after run, want 0 (releases %d)", name, p.refs, p.releases)
		}
		if p.releases == 0 {
			t.Fatalf("%s: payload never retained/released", name)
		}
	}
}

// A set whose only member is the sender delivers locally and touches no
// wire; a set multicast from a crashed process goes nowhere.
func TestSetMulticastDegenerateCases(t *testing.T) {
	h := newHarness(t, DefaultConfig(3))
	solo := h.nw.RegisterSet([]int{0})
	h.eng.Schedule(0, func() { h.nw.MulticastSet(0, solo, "m") })
	h.eng.Run()
	if len(h.got) != 1 || h.got[0].to != 0 || h.nw.Counters().WireSlots != 0 {
		t.Fatalf("solo set: deliveries %+v, counters %+v", h.got, h.nw.Counters())
	}

	h2 := newHarness(t, DefaultConfig(3))
	pair := h2.nw.RegisterSet([]int{1, 2})
	h2.nw.Crash(0)
	p := &countedPayload{}
	h2.eng.Schedule(0, func() { h2.nw.MulticastSet(0, pair, p) })
	h2.eng.Run()
	if len(h2.got) != 0 {
		t.Fatalf("crashed sender delivered: %+v", h2.got)
	}
	if p.refs != 0 {
		t.Fatalf("crashed sender leaked payload refs: %d", p.refs)
	}
}

// The last set id a hop record holds routes like any other, and
// RegisterSet refuses the id after it. The ids below it are taken by nil
// tables, as registering 65 535 sets would take too long.
func TestRegisterSetPastLastID(t *testing.T) {
	h := newHarness(t, DefaultConfig(3))
	h.nw.sets = append(h.nw.sets, make([]*topo.SetRouting, maxSets-2)...)
	last := h.nw.RegisterSet([]int{2})
	if last != maxSets-1 {
		t.Fatalf("set id %d, want %d", last, maxSets-1)
	}
	h.eng.Schedule(0, func() { h.nw.MulticastSet(1, last, "m") })
	h.eng.Run()
	if len(h.got) != 1 || h.got[0].to != 2 || h.got[0].from != 1 || h.got[0].at != ms(3) {
		t.Fatalf("multicast to the last set id: deliveries %+v, want one to p2 from p1 at 3ms", h.got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("RegisterSet past the last set id did not panic")
		}
	}()
	h.nw.RegisterSet([]int{0})
}

// pack and unpack take apart what they put together at every field's
// largest value.
func TestPackRoundTrip(t *testing.T) {
	for _, c := range []struct {
		set          SetID
		origin, node int
	}{{0, 0, 0}, {maxSets - 1, maxProcs - 1, maxProcs - 1}, {1, maxProcs - 1, 0}, {maxSets - 1, 0, 1}} {
		a := pack(c.set, c.origin, c.node)
		if set, origin, node := unpack(a); set != c.set || origin != c.origin || node != c.node || a < 0 {
			t.Errorf("unpack(pack(%d, %d, %d)) = %d, %d, %d (a = %d)", c.set, c.origin, c.node, set, origin, node, a)
		}
	}
}

// islandTopology is a 4-clique on one wire plus p4, which only sends to
// p0: p4 is unreachable from every other origin.
func islandTopology() *topo.Topology {
	t := &topo.Topology{Name: "island", N: 5, Wires: []topo.Wire{{}}}
	for u := 0; u < 4; u++ {
		for v := 0; v < 4; v++ {
			if u != v {
				t.Edges = append(t.Edges, topo.Edge{From: u, To: v})
			}
		}
	}
	t.Edges = append(t.Edges, topo.Edge{From: 4, To: 0})
	return t
}

// Multicast is the multicast to Everyone: from every origin, it gives the
// same deliveries at the same instants, the same counters and the same
// payload balance as a multicast to a registered set of every process, on
// relaying and direct topologies, fault-free, through a crashed relay and
// across a partition.
func TestMulticastIsTheSetOfEveryone(t *testing.T) {
	faults := []struct {
		name  string
		apply func(*Network)
	}{
		{"no fault", func(*Network) {}},
		{"dead relay p1", func(nw *Network) { nw.Crash(1) }},
		{"{0 1}|rest", func(nw *Network) {
			rest := []int{}
			for p := 2; p < nw.cfg.N; p++ {
				rest = append(rest, p)
			}
			nw.SetPartition([][]int{{0, 1}, rest})
		}},
	}
	run := func(tp *topo.Topology, fault func(*Network), everyone bool) ([]delivery, Counters) {
		h := newHarness(t, topoConfig(tp))
		fault(h.nw)
		all := make([]int, tp.N)
		for p := range all {
			all[p] = p
		}
		set := h.nw.RegisterSet(all)
		payloads := make([]*countedPayload, tp.N)
		for p := range payloads {
			p, payload := p, &countedPayload{}
			payloads[p] = payload
			h.eng.Schedule(ms(float64(p)), func() {
				if everyone {
					h.nw.Multicast(p, payload)
				} else {
					h.nw.MulticastSet(p, set, payload)
				}
			})
		}
		h.eng.Run()
		for p, payload := range payloads {
			if payload.refs != 0 {
				t.Errorf("%s: the multicast from p%d holds %d payload refs after the run", tp.Name, p, payload.refs)
			}
		}
		return h.got, h.nw.Counters()
	}
	for _, tp := range []*topo.Topology{topo.Ring(5), topo.Star(5), topo.Geo(topo.GeoConfig{Sites: 2, PerSite: 3}), islandTopology(), topo.FullMesh(5)} {
		for _, fault := range faults {
			name := fault.name
			got, gotCtrs := run(tp, fault.apply, true)
			want, wantCtrs := run(tp, fault.apply, false)
			if len(got) != len(want) || gotCtrs != wantCtrs {
				t.Fatalf("%s, %s: Multicast gives %d deliveries and %+v, the registered set %d and %+v", tp.Name, name, len(got), gotCtrs, len(want), wantCtrs)
			}
			for i := range got {
				if g, w := got[i], want[i]; g.to != w.to || g.from != w.from || g.at != w.at {
					t.Fatalf("%s, %s: delivery %d is %+v, the registered set's %+v", tp.Name, name, i, g, w)
				}
			}
		}
	}
}

// Everyone is slot 0 of every network, holding the topology's own tables
// after New and after a Reset onto another topology; registered sets never
// take its id, before or after the Reset.
func TestEveryoneIsTheTopologysOwnTables(t *testing.T) {
	ring, star := topo.Ring(5), topo.Star(5)
	h := newHarness(t, topoConfig(ring))
	for _, tp := range []*topo.Topology{ring, star, nil} {
		if tp != nil {
			h.nw.Reset(topoConfig(tp))
		} else {
			h.nw.Reset(DefaultConfig(5))
			tp = topo.SharedFullMesh(5)
		}
		if h.nw.sets[Everyone] != &tp.Routing().SetRouting {
			t.Fatalf("%s: slot %d is not the topology's own tables", tp.Name, Everyone)
		}
		for _, members := range [][]int{{0, 1}, {0, 1, 2, 3, 4}, {3}} {
			if id := h.nw.RegisterSet(members); id == Everyone {
				t.Fatalf("%s: RegisterSet(%v) returned Everyone", tp.Name, members)
			}
		}
	}
}
