package netmodel

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/topo"
)

func topoConfig(t *topo.Topology) Config {
	cfg := DefaultConfig(t.N)
	cfg.Topology = t
	return cfg
}

// On a ring, a unicast to a node two hops away is relayed: sender CPU λ,
// wire slot, relay receive λ, relay send λ, wire slot, receiver CPU λ.
func TestRingUnicastRelayTiming(t *testing.T) {
	h := newHarness(t, topoConfig(topo.Ring(5)))
	h.eng.Schedule(0, func() { h.nw.Send(0, 2, "m") })
	h.eng.Run()
	if len(h.got) != 1 || h.got[0].to != 2 || h.got[0].from != 0 {
		t.Fatalf("deliveries = %+v, want one to p2 from p0", h.got)
	}
	if h.got[0].at != ms(6) {
		t.Fatalf("two-hop unicast delivered at %v, want 6ms (2 hops x (λ+slot+λ) - shared relay λ... 1+1+1+1+1+1)", h.got[0].at)
	}
	c := h.nw.Counters()
	if c.Unicasts != 1 || c.WireSlots != 2 || c.Deliveries != 1 {
		t.Fatalf("counters = %+v, want 1 unicast over 2 wire slots", c)
	}
}

// A ring multicast reaches everyone by relaying both ways around; each
// relay hop adds λ+slot+λ, so the farthest node on a 5-ring delivers at
// 2 hops' depth.
func TestRingMulticastRelays(t *testing.T) {
	h := newHarness(t, topoConfig(topo.Ring(5)))
	h.eng.Schedule(0, func() { h.nw.Multicast(0, "m") })
	h.eng.Run()
	if len(h.got) != 5 {
		t.Fatalf("got %d deliveries, want 5", len(h.got))
	}
	at := make(map[int]sim.Time)
	for _, d := range h.got {
		if d.from != 0 {
			t.Fatalf("delivery from %d, want origin 0", d.from)
		}
		at[d.to] = d.at
	}
	if at[0] != ms(0) {
		t.Fatalf("local copy at %v, want immediate", at[0])
	}
	// Neighbours: the origin occupies its CPU for each of its two
	// segments in wire order (wire 0 to p1, then wire 4 to p4), so p1
	// hears its slot first.
	if at[1] != ms(3) || at[4] != ms(4) {
		t.Fatalf("neighbours delivered at %v / %v, want 3ms / 4ms", at[1], at[4])
	}
	// Second ring positions ride one relay each behind the neighbours.
	if at[2] != at[1].Add(3*time.Millisecond) || at[3] != at[4].Add(3*time.Millisecond) {
		t.Fatalf("far nodes delivered at %v / %v, want one relay (3ms) behind %v / %v", at[2], at[3], at[1], at[4])
	}
	c := h.nw.Counters()
	if c.Multicasts != 1 || c.WireSlots != 4 {
		t.Fatalf("counters = %+v, want 1 multicast over 4 wire slots", c)
	}
}

// Clique wires never contend with each other: two simultaneous unicasts
// on different pairs deliver in parallel, unlike the shared full-mesh
// Ethernet where one would queue behind the other.
func TestCliqueWiresDoNotContend(t *testing.T) {
	h := newHarness(t, topoConfig(topo.Clique(4)))
	h.eng.Schedule(0, func() {
		h.nw.Send(0, 1, "a")
		h.nw.Send(2, 3, "b")
	})
	h.eng.Run()
	if len(h.got) != 2 {
		t.Fatalf("got %d deliveries, want 2", len(h.got))
	}
	for _, d := range h.got {
		if d.at != ms(3) {
			t.Fatalf("delivery %+v at %v, want 3ms (no wire contention)", d, d.at)
		}
	}
	// Same experiment on the paper's mesh: the second send queues one
	// slot behind the first on the shared wire.
	m := newHarness(t, DefaultConfig(4))
	m.eng.Schedule(0, func() {
		m.nw.Send(0, 1, "a")
		m.nw.Send(2, 3, "b")
	})
	m.eng.Run()
	var late sim.Time
	for _, d := range m.got {
		if d.at > late {
			late = d.at
		}
	}
	if late != ms(4) {
		t.Fatalf("mesh straggler at %v, want 4ms (queued slot)", late)
	}
}

// A wire's Delay adds propagation time without extending the occupancy:
// back-to-back sends on a delayed wire still pipeline one slot apart.
func TestWireDelayIsPropagationNotOccupancy(t *testing.T) {
	tp := &topo.Topology{
		Name: "wan-pair", N: 2,
		Wires: []topo.Wire{{Delay: 20 * time.Millisecond}},
		Edges: []topo.Edge{{From: 0, To: 1, Wire: 0}, {From: 1, To: 0, Wire: 0}},
	}
	h := newHarness(t, topoConfig(tp))
	h.eng.Schedule(0, func() {
		h.nw.Send(0, 1, "a")
		h.nw.Send(0, 1, "b")
	})
	h.eng.Run()
	if len(h.got) != 2 {
		t.Fatalf("got %d deliveries, want 2", len(h.got))
	}
	// First: CPU 0→1, slot 1→2, +20ms propagation = 22, CPU λ → 23.
	// Second rides one λ and one slot later → 24: the wire was free
	// again at 2ms even though the first copy was still propagating.
	if h.got[0].at != ms(23) || h.got[1].at != ms(24) {
		t.Fatalf("delivered at %v and %v, want 23ms and 24ms", h.got[0].at, h.got[1].at)
	}
}

// A wire's Slot overrides the model default: a fat LAN pipe drains
// back-to-back messages faster than the paper's 1 ms medium.
func TestWireSlotOverride(t *testing.T) {
	tp := &topo.Topology{
		Name: "fat-pair", N: 2,
		Wires: []topo.Wire{{Slot: 250 * time.Microsecond}},
		Edges: []topo.Edge{{From: 0, To: 1, Wire: 0}, {From: 1, To: 0, Wire: 0}},
	}
	h := newHarness(t, topoConfig(tp))
	h.eng.Schedule(0, func() { h.nw.Send(0, 1, "a") })
	h.eng.Run()
	if h.got[0].at != ms(2.25) {
		t.Fatalf("delivered at %v, want 2.25ms (λ + 0.25 slot + λ)", h.got[0].at)
	}
}

// Wire loss draws per copy on the fault stream; Loss=1 kills every copy
// crossing the wire and releases the whole subtree behind it.
func TestWireLossKillsSubtree(t *testing.T) {
	g := topo.Geo(topo.GeoConfig{Sites: 2, PerSite: 3, WAN: topo.Wire{Loss: 1}})
	h := newHarness(t, topoConfig(g))
	drops := 0
	h.nw.SetTrace(func(ev TraceEvent) {
		if ev.Kind == TraceDrop {
			drops++
		}
	})
	h.eng.Schedule(0, func() { h.nw.Multicast(0, "m") })
	h.eng.Run()
	// Only site 0 hears it: the WAN copy to gateway 3 dies, taking the
	// remote site's three copies with it.
	if len(h.got) != 3 {
		t.Fatalf("got %d deliveries, want 3 (own site only)", len(h.got))
	}
	c := h.nw.Counters()
	if c.Lost != 3 {
		t.Fatalf("Lost = %d, want 3 (remote site's subtree)", c.Lost)
	}
	if drops != 1 {
		t.Fatalf("drop traces = %d, want 1 (one observable loss event)", drops)
	}
}

// A crashed relay stops forwarding: its own copy is a crash drop and the
// subtree behind it is lost to the environment.
func TestCrashedRelayLosesSubtree(t *testing.T) {
	h := newHarness(t, topoConfig(topo.Star(4)))
	h.eng.Schedule(0, func() { h.nw.Multicast(1, "m") })
	// The hub crashes while the spoke hop is in flight.
	h.eng.Schedule(ms(2), func() { h.nw.Crash(0) })
	h.eng.Run()
	if len(h.got) != 1 || h.got[0].to != 1 {
		t.Fatalf("deliveries = %+v, want only the local copy", h.got)
	}
	c := h.nw.Counters()
	if c.Drops != 1 {
		t.Fatalf("Drops = %d, want 1 (the hub's own copy)", c.Drops)
	}
	if c.Lost != 2 {
		t.Fatalf("Lost = %d, want 2 (the spokes behind the dead hub)", c.Lost)
	}
}

// Sending to a graph-unreachable destination is counted and dropped at
// the sender's NIC instead of hanging the refcount.
func TestUnreachableDestinationDrops(t *testing.T) {
	tp := &topo.Topology{
		Name: "one-way", N: 2, Wires: []topo.Wire{{}},
		Edges: []topo.Edge{{From: 0, To: 1, Wire: 0}},
	}
	h := newHarness(t, topoConfig(tp))
	h.eng.Schedule(0, func() { h.nw.Send(1, 0, "m") })
	h.eng.Run()
	if len(h.got) != 0 {
		t.Fatalf("deliveries = %+v, want none", h.got)
	}
	c := h.nw.Counters()
	if c.Unicasts != 1 || c.Lost != 1 {
		t.Fatalf("counters = %+v, want the send counted and lost", c)
	}
}

// Partitions act per hop: on a geo topology, cutting along the WAN
// leaves intra-site traffic untouched even though the fault-free route
// between the sites exists.
func TestGeoPartitionAlongWANCut(t *testing.T) {
	g := topo.Geo(topo.GeoConfig{Sites: 2, PerSite: 2})
	h := newHarness(t, topoConfig(g))
	h.nw.SetPartition(g.SiteCut(0))
	h.eng.Schedule(0, func() {
		h.nw.Send(0, 1, "lan")
		h.nw.Send(1, 3, "wan")
	})
	h.eng.Run()
	if len(h.got) != 1 || h.got[0].payload != "lan" {
		t.Fatalf("deliveries = %+v, want only the intra-site send", h.got)
	}
	h.nw.ClearPartition()
	h.eng.Schedule(h.eng.Now(), func() { h.nw.Send(1, 3, "wan2") })
	h.eng.Run()
	if len(h.got) != 2 || h.got[1].payload != "wan2" {
		t.Fatalf("deliveries after heal = %+v, want the cross-site send through", h.got)
	}
}

// --- Satellite: fault interactions the topology rewire must preserve ---

// A link with loss and delay that is then partitioned: the partition
// wins (copies die at the handoff before the loss draw), and healing the
// partition restores the link fault exactly as configured.
func TestLinkFaultThenPartitioned(t *testing.T) {
	h := newHarness(t, DefaultConfig(3))
	h.nw.SetFaultRand(sim.NewRand(7))
	h.nw.SetLink(0, 1, 0.5, 2*time.Millisecond)
	h.nw.SetPartition([][]int{{0, 2}, {1}})
	sent := 0
	h.eng.Schedule(0, func() {
		for i := 0; i < 8; i++ {
			h.eng.After(sim.Millis(float64(10*i)), func() { h.nw.Send(0, 1, "m"); sent++ })
		}
	})
	h.eng.Run()
	if len(h.got) != 0 {
		t.Fatalf("deliveries across a partition: %+v", h.got)
	}
	if c := h.nw.Counters(); c.Lost != 8 {
		t.Fatalf("Lost = %d, want all 8 partitioned copies", c.Lost)
	}
	// Heal: the link fault must still be armed — half the copies drop,
	// survivors arrive 2ms late (λ+slot+delay+λ = 5ms after send).
	h.nw.ClearPartition()
	base := h.eng.Now()
	for i := 0; i < 40; i++ {
		off := sim.Millis(float64(10 * (i + 1)))
		h.eng.Schedule(base.Add(off), func() { h.nw.Send(0, 1, "m2") })
	}
	h.eng.Run()
	if len(h.got) == 0 || len(h.got) == 40 {
		t.Fatalf("after heal got %d deliveries of 40, want lossy subset", len(h.got))
	}
	for _, d := range h.got {
		if d.at.Sub(base)%sim.Millis(10) != sim.Millis(5) {
			t.Fatalf("survivor at %v, want sends+5ms (link delay preserved)", d.at)
		}
	}
}

// ClearPartition must not clear link faults: the faults flag stays up
// while any SetLink is active.
func TestSetLinkSurvivesClearPartition(t *testing.T) {
	h := newHarness(t, DefaultConfig(2))
	h.nw.SetLink(0, 1, 1, 0)
	h.nw.SetPartition([][]int{{0}, {1}})
	h.nw.ClearPartition()
	h.eng.Schedule(0, func() { h.nw.Send(0, 1, "m") })
	h.eng.Run()
	if len(h.got) != 0 {
		t.Fatalf("lossy link forgot its fault after ClearPartition: %+v", h.got)
	}
	if c := h.nw.Counters(); c.Lost != 1 {
		t.Fatalf("Lost = %d, want 1", c.Lost)
	}
	// Clearing the link too restores a perfect network.
	h.nw.SetLink(0, 1, 0, 0)
	h.eng.Schedule(h.eng.Now(), func() { h.nw.Send(0, 1, "m2") })
	h.eng.Run()
	if len(h.got) != 1 {
		t.Fatalf("cleared link still faulty: %d deliveries", len(h.got))
	}
}

// Recover of a process behind a lossy WAN edge: the crash drop path and
// the wire loss path compose — after recovery, copies that survive the
// WAN draw are delivered again.
func TestRecoverBehindLossyWANEdge(t *testing.T) {
	g := topo.Geo(topo.GeoConfig{Sites: 2, PerSite: 2, WAN: topo.Wire{Loss: 0.5}})
	h := newHarness(t, topoConfig(g))
	h.nw.SetFaultRand(sim.NewRand(11))
	h.nw.Crash(3)
	h.eng.Schedule(0, func() {
		for i := 0; i < 30; i++ {
			h.eng.After(sim.Millis(float64(10*i)), func() { h.nw.Send(0, 3, "down") })
		}
	})
	h.eng.Run()
	crashDrops := h.nw.Counters().Drops
	if crashDrops == 0 {
		t.Fatal("no copy survived the WAN to be crash-dropped — scenario broken")
	}
	if len(h.got) != 0 {
		t.Fatalf("delivered to a crashed process: %+v", h.got)
	}
	h.nw.Recover(3)
	base := h.eng.Now()
	for i := 0; i < 30; i++ {
		off := sim.Millis(float64(10 * (i + 1)))
		h.eng.Schedule(base.Add(off), func() { h.nw.Send(0, 3, "up") })
	}
	h.eng.Run()
	if len(h.got) == 0 || len(h.got) == 30 {
		t.Fatalf("after recovery got %d of 30, want lossy-but-flowing", len(h.got))
	}
	for _, d := range h.got {
		if d.to != 3 || d.payload != "up" {
			t.Fatalf("unexpected delivery %+v", d)
		}
	}
	if c := h.nw.Counters(); c.Drops != crashDrops {
		t.Fatalf("Drops moved %d -> %d after recovery; survivors must deliver", crashDrops, c.Drops)
	}
}

// Large-N sanity: a geo multicast on hundreds of processes reaches every
// process exactly once with hop-proportional work, and the hot path
// reuses pooled events (covered by the alloc budgets elsewhere).
func TestLargeNGeoMulticastReachesAll(t *testing.T) {
	g := topo.Geo(topo.GeoConfig{Sites: 16, PerSite: 16})
	h := newHarness(t, topoConfig(g))
	h.eng.Schedule(0, func() { h.nw.Multicast(17, "m") })
	h.eng.Run()
	if len(h.got) != 256 {
		t.Fatalf("got %d deliveries, want 256", len(h.got))
	}
	seen := make(map[int]bool)
	for _, d := range h.got {
		if seen[d.to] {
			t.Fatalf("double delivery to %d", d.to)
		}
		seen[d.to] = true
	}
	c := h.nw.Counters()
	// One LAN slot per site reaches its members; WAN slots pairwise from
	// the origin site. Far fewer than 255 point-to-point slots.
	if c.WireSlots >= 255 {
		t.Fatalf("WireSlots = %d, want tree fan-out, not per-destination slots", c.WireSlots)
	}
}

// TestResetMatchesNew: a network built on one topology, dirtied, and
// Reset onto another topology of the same N runs a scripted mix of
// unicasts, multicasts and set multicasts exactly as a network New builds
// on the second one: the same deliveries at the same instants in the same
// order, and the same counters. The pairs grow and shrink the wire arrays
// and go from lossless wires to lossy ones and back. A Reset to another N
// panics.
func TestResetMatchesNew(t *testing.T) {
	const n = 8
	lossyGeo := topo.Geo(topo.GeoConfig{Sites: 4, PerSite: 2, WAN: topo.Wire{Delay: 3 * time.Millisecond, Loss: 0.2}})
	ring, clique := topo.Ring(n), topo.Clique(n)
	config := func(t *topo.Topology) Config {
		cfg := DefaultConfig(n)
		if t != nil {
			cfg = topoConfig(t)
		}
		return cfg
	}
	script := func(h *harness) (deliveries []delivery, ctrs Counters) {
		set := h.nw.RegisterSet([]int{1, 2, 5, 6})
		for i := 0; i < 48; i++ {
			i, p := i, i%n
			h.eng.Schedule(ms(float64(i)/3), func() {
				switch i % 4 {
				case 0:
					h.nw.Multicast(p, i)
				case 1:
					h.nw.MulticastSet(p, set, i)
				default:
					h.nw.Send(p, (p+3*i+1)%n, i)
				}
			})
		}
		h.eng.Run()
		return h.got, h.nw.Counters()
	}
	for i, tc := range []struct {
		name     string
		from, to *topo.Topology
		panics   bool
	}{
		{name: "full mesh to ring", from: nil, to: ring},
		{name: "ring to lossy geo", from: ring, to: lossyGeo},
		{name: "lossy geo to clique", from: lossyGeo, to: clique},
		{name: "clique to full mesh", from: clique, to: nil},
		{name: "full mesh to another N", from: nil, to: topo.Ring(n - 1), panics: true},
	} {
		// The dirtied network registers sets with fewer and with more
		// members than the script's, in either order, so the script's set
		// lands on storage another set left behind.
		others := [][]int{{0, 7}, {0, 1, 3, 4, 6, 7}}
		if i%2 == 1 {
			others[0], others[1] = others[1], others[0]
		}
		t.Run(tc.name, func(t *testing.T) {
			dirty := config(tc.from)
			dirty.Lambda, dirty.Slot = 2*time.Millisecond, 3*time.Millisecond
			h := newHarness(t, dirty)
			traced := 0
			h.nw.SetTrace(func(TraceEvent) { traced++ })
			for _, members := range others {
				h.nw.RegisterSet(members)
			}
			h.nw.SetLink(1, 2, 0.5, 4*time.Millisecond)
			h.nw.SetPartition([][]int{{0, 1, 2, 3}, {4, 5, 6, 7}})
			h.nw.Crash(3)
			h.eng.Schedule(0, func() {
				for p := 0; p < n; p++ {
					h.nw.Multicast(p, "dirty")
					h.nw.Send(p, (p+5)%n, "dirty")
				}
			})
			h.eng.RunUntil(ms(4))
			if h.nw.Counters().Deliveries == 0 || h.eng.Pending() == 0 {
				t.Fatalf("dirtied network delivered %d copies with %d events pending; want both non-zero", h.nw.Counters().Deliveries, h.eng.Pending())
			}
			h.eng.Reset()
			dirtyTraced := traced
			if tc.panics {
				defer func() {
					if recover() == nil {
						t.Error("Reset to another N did not panic")
					}
				}()
			}
			h.nw.Reset(config(tc.to))
			h.got = nil
			got, gotCtrs := script(h)
			want, wantCtrs := script(newHarness(t, config(tc.to)))
			if !reflect.DeepEqual(got, want) {
				t.Errorf("deliveries after Reset differ from New's:\nreset: %v\nnew:   %v", got, want)
			}
			if traced != dirtyTraced {
				t.Errorf("the dirtied network's trace hook ran %d times after Reset", traced-dirtyTraced)
			}
			if gotCtrs != wantCtrs {
				t.Errorf("counters after Reset = %+v, New gives %+v", gotCtrs, wantCtrs)
			}
			if wantCtrs.Deliveries == 0 {
				t.Error("the script delivered nothing")
			}
		})
	}
}
