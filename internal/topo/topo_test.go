package topo

import (
	"testing"
	"time"
)

func TestGeneratorsValidateAndCompile(t *testing.T) {
	for _, tp := range []*Topology{
		FullMesh(1), FullMesh(2), FullMesh(7),
		Star(1), Star(2), Star(8),
		Ring(1), Ring(2), Ring(3), Ring(8),
		Clique(1), Clique(2), Clique(6),
		Geo(GeoConfig{Sites: 3, PerSite: 3}),
		Geo(GeoConfig{Sites: 2, PerSite: 1, WAN: Wire{Delay: 5 * time.Millisecond}}),
	} {
		if err := tp.Validate(); err != nil {
			t.Fatalf("%s: %v", tp.Name, err)
		}
		rt := tp.Routing()
		if rt.N != tp.N {
			t.Fatalf("%s: routing N=%d, topology N=%d", tp.Name, rt.N, tp.N)
		}
	}
}

// Every generator builds a strongly connected graph, so each origin
// reaches everyone, subtree sizes sum to n, and following Next from any
// node converges on the destination.
func TestRoutingReachAndNextConverge(t *testing.T) {
	for _, tp := range []*Topology{
		FullMesh(5), Star(6), Ring(9), Clique(5),
		Geo(GeoConfig{Sites: 3, PerSite: 4}),
	} {
		rt := tp.Routing()
		n := tp.N
		for o := 0; o < n; o++ {
			if got := int(rt.Reach[o]); got != n-1 {
				t.Fatalf("%s: Reach[%d]=%d, want %d", tp.Name, o, got, n-1)
			}
			if int(rt.Sub[o][o]) != n {
				t.Fatalf("%s: Sub[%d][%d]=%d, want %d", tp.Name, o, o, rt.Sub[o][o], n)
			}
			total := 0
			for gi := range rt.Tree[o] {
				for _, g := range rt.Tree[o][gi] {
					total += len(g.Dsts)
				}
			}
			if total != n-1 {
				t.Fatalf("%s: tree of %d spans %d nodes, want %d", tp.Name, o, total, n-1)
			}
			for v := 0; v < n; v++ {
				if v == o {
					continue
				}
				node, hops := o, 0
				for node != v {
					next := int(rt.Next[node][v])
					if next < 0 {
						t.Fatalf("%s: no route %d->%d at hop %d", tp.Name, o, v, node)
					}
					if rt.HopWire[node][v] < 0 {
						t.Fatalf("%s: route %d->%d at %d has no wire", tp.Name, o, v, node)
					}
					node = next
					if hops++; hops > n {
						t.Fatalf("%s: route %d->%d does not converge", tp.Name, o, v)
					}
				}
			}
		}
	}
}

// FullMesh and Clique take the complete-graph fast path; its tables must
// agree with what the generic BFS would produce: direct single hops and
// one-level trees.
func TestCompleteGraphTables(t *testing.T) {
	mesh := FullMesh(4).Routing()
	for u := 0; u < 4; u++ {
		for v := 0; v < 4; v++ {
			if u == v {
				continue
			}
			if int(mesh.Next[u][v]) != v || mesh.HopWire[u][v] != 0 {
				t.Fatalf("mesh Next[%d][%d]=%d wire %d, want direct on wire 0", u, v, mesh.Next[u][v], mesh.HopWire[u][v])
			}
		}
		tree := mesh.Tree[u][u]
		if len(tree) != 1 || len(tree[0].Dsts) != 3 {
			t.Fatalf("mesh tree at %d: %+v, want one 3-destination segment", u, tree)
		}
	}
	cl := Clique(4).Routing()
	for u := 0; u < 4; u++ {
		tree := cl.Tree[u][u]
		if len(tree) != 3 {
			t.Fatalf("clique tree at %d has %d segments, want 3 (one wire per pair)", u, len(tree))
		}
		for _, g := range tree {
			if len(g.Dsts) != 1 {
				t.Fatalf("clique segment %+v, want single destination", g)
			}
		}
	}
}

// A ring's multicast tree from any origin runs both ways around, and
// unicasts to the far side take the shorter arc.
func TestRingRouting(t *testing.T) {
	rt := Ring(6).Routing()
	if got := int(rt.Next[0][3]); got != 1 && got != 5 {
		t.Fatalf("ring Next[0][3]=%d, want a neighbour", got)
	}
	if got := int(rt.Next[0][2]); got != 1 {
		t.Fatalf("ring Next[0][2]=%d, want 1 (two hops clockwise)", got)
	}
	if got := int(rt.Next[0][4]); got != 5 {
		t.Fatalf("ring Next[0][4]=%d, want 5 (two hops counter-clockwise)", got)
	}
	// Origin 0 transmits on both its wires; each neighbour relays onward.
	if got := len(rt.Tree[0][0]); got != 2 {
		t.Fatalf("ring tree at origin has %d segments, want 2", got)
	}
	if len(rt.Tree[0][1]) == 0 || len(rt.Tree[0][5]) == 0 {
		t.Fatal("ring neighbours of the origin must relay the multicast onward")
	}
}

// Geo routes cross-site traffic through the two gateways, and SiteCut
// splits along site membership.
func TestGeoRoutingAndSiteCut(t *testing.T) {
	g := Geo(GeoConfig{Sites: 3, PerSite: 3, WAN: Wire{Delay: 10 * time.Millisecond}})
	rt := g.Routing()
	// p1 (site 0) to p4 (site 1): via gateway 0, then gateway 3.
	if got := int(rt.Next[1][4]); got != 0 {
		t.Fatalf("geo Next[1][4]=%d, want gateway 0", got)
	}
	if got := int(rt.Next[0][4]); got != 3 {
		t.Fatalf("geo Next[0][4]=%d, want remote gateway 3", got)
	}
	if got := int(rt.Next[3][4]); got != 4 {
		t.Fatalf("geo Next[3][4]=%d, want direct LAN hop", got)
	}
	// The WAN hop's wire must carry the configured delay.
	w := rt.HopWire[0][4]
	if g.Wires[w].Delay != 10*time.Millisecond {
		t.Fatalf("geo WAN hop rides wire %d with delay %v, want 10ms", w, g.Wires[w].Delay)
	}
	cut := g.SiteCut(0)
	if len(cut) != 2 || len(cut[0]) != 3 || len(cut[1]) != 6 {
		t.Fatalf("SiteCut(0) = %v, want site 0 vs the rest", cut)
	}
	// A multicast from site 0 loses sites 1 and 2 if gateway 0's WAN
	// copies die: the subtree behind each remote gateway is its site.
	if got := int(rt.Sub[1][3]); got != 3 {
		t.Fatalf("geo Sub[1][gateway 3]=%d, want 3 (the whole site)", got)
	}
}

func TestValidateRejectsBadGraphs(t *testing.T) {
	bad := []struct {
		tp  *Topology
		err string
	}{
		{&Topology{Name: "n0", N: 0}, "topo: N = 0, need at least 1"},
		{&Topology{Name: "range", N: 2, Wires: []Wire{{}}, Edges: []Edge{{From: 0, To: 2, Wire: 0}}}, "topo: edge 0->2 out of range for N=2"},
		{&Topology{Name: "self", N: 2, Wires: []Wire{{}}, Edges: []Edge{{From: 1, To: 1, Wire: 0}}}, "topo: self edge at process 1"},
		{&Topology{Name: "wire", N: 2, Wires: []Wire{{}}, Edges: []Edge{{From: 0, To: 1, Wire: 1}}}, "topo: edge 0->1 rides wire 1, have 1 wires"},
		{&Topology{Name: "dup", N: 2, Wires: []Wire{{}}, Edges: []Edge{{From: 0, To: 1, Wire: 0}, {From: 0, To: 1, Wire: 0}}}, "topo: duplicate edge 0->1"},
		{&Topology{Name: "loss", N: 2, Wires: []Wire{{Loss: 1.5}}, Edges: []Edge{{From: 0, To: 1, Wire: 0}}}, "topo: wire 0 loss 1.5 outside [0,1]"},
		{&Topology{Name: "delay", N: 2, Wires: []Wire{{Delay: -time.Millisecond}}, Edges: []Edge{{From: 0, To: 1, Wire: 0}}}, "topo: wire 0 has negative delay -1ms"},
		{&Topology{Name: "group", N: 2, Wires: []Wire{{}}, Groups: [][]int{{0, 7}}}, "topo: group 0 contains process 7, want 0..1"},
		// Duplicates apart in an unsorted list, riding different wires: the
		// first edge that repeats an earlier pair is named, and an error of
		// a later edge does not hide it, nor it one of an earlier edge.
		{&Topology{Name: "dup-apart", N: 3, Wires: []Wire{{}, {}}, Edges: []Edge{
			{From: 2, To: 1, Wire: 0}, {From: 1, To: 0, Wire: 0}, {From: 0, To: 2, Wire: 0},
			{From: 1, To: 0, Wire: 1}, {From: 2, To: 1, Wire: 1}, {From: 0, To: 3, Wire: 0},
		}}, "topo: duplicate edge 1->0"},
		{&Topology{Name: "range-first", N: 3, Wires: []Wire{{}}, Edges: []Edge{
			{From: 1, To: 0, Wire: 0}, {From: 2, To: 2, Wire: 0}, {From: 1, To: 0, Wire: 0},
		}}, "topo: self edge at process 2"},
	}
	for _, c := range bad {
		if err := c.tp.Validate(); err == nil || err.Error() != c.err {
			t.Errorf("%s: Validate() = %v, want %q", c.tp.Name, err, c.err)
		}
	}
}

// A disconnected graph compiles: unreachable pairs are marked, Reach
// counts only the component.
func TestDisconnectedGraph(t *testing.T) {
	tp := &Topology{
		Name: "split", N: 4, Wires: []Wire{{}, {}},
		Edges: []Edge{
			{From: 0, To: 1, Wire: 0}, {From: 1, To: 0, Wire: 0},
			{From: 2, To: 3, Wire: 1}, {From: 3, To: 2, Wire: 1},
		},
	}
	rt := tp.Routing()
	if rt.Next[0][2] != -1 {
		t.Fatalf("Next[0][2]=%d, want -1 (unreachable)", rt.Next[0][2])
	}
	if rt.Reach[0] != 1 || rt.Reach[2] != 1 {
		t.Fatalf("Reach = %v, want 1 per node", rt.Reach)
	}
}
