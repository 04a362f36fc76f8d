package topo

import (
	"reflect"
	"testing"
)

// On a ring, pruning to members on one side cuts the whole other branch:
// a set multicast only occupies the wires that lead to members.
func TestPruneSetRingCutsDeadBranch(t *testing.T) {
	rt := Ring(5).Routing()
	sr := rt.PruneSet([]int{0, 1, 2})
	if sr.Reach[0] != 2 {
		t.Fatalf("Reach[0] = %d, want 2 members", sr.Reach[0])
	}
	// Origin 0 keeps only the clockwise branch (0→1→2); the branch
	// through 4 reaches no member and must be gone.
	for _, g := range sr.Tree[0][0] {
		for _, v := range g.Dsts {
			if v == 4 {
				t.Fatalf("Tree[0][0] still targets 4: %+v", sr.Tree[0][0])
			}
		}
	}
	if sr.Sub[0][1] != 2 || sr.Sub[0][2] != 1 || sr.Sub[0][4] != 0 {
		t.Fatalf("Sub[0] = %v, want 2 behind 1, 1 behind 2, 0 behind 4", sr.Sub[0])
	}
}

// A non-member origin still multicasts to the set: its Reach counts all
// members, and a non-member relay on the path keeps its forwarding entry
// even though it is not itself counted.
func TestPruneSetNonMemberOriginAndRelay(t *testing.T) {
	rt := Ring(5).Routing()
	sr := rt.PruneSet([]int{0, 2})
	if sr.Reach[4] != 2 {
		t.Fatalf("Reach[4] = %d, want both members", sr.Reach[4])
	}
	// From 4, member 2 is reached through non-member 3: 3 must keep a
	// transmit group targeting 2 with one member behind it.
	if sr.Sub[4][3] != 1 {
		t.Fatalf("Sub[4][3] = %d, want 1 (member 2 behind relay 3)", sr.Sub[4][3])
	}
	found := false
	for _, g := range sr.Tree[4][3] {
		for _, v := range g.Dsts {
			if v == 2 {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("relay 3 lost its forwarding entry to member 2: %+v", sr.Tree[4][3])
	}
}

// On a full mesh everything is a direct child, so pruning reduces to
// filtering the destination list.
func TestPruneSetFullMesh(t *testing.T) {
	rt := FullMesh(6).Routing()
	sr := rt.PruneSet([]int{1, 3, 5})
	if sr.Reach[1] != 2 || sr.Reach[0] != 3 {
		t.Fatalf("Reach = %v, want 2 from member 1, 3 from non-member 0", sr.Reach)
	}
	var kept []int32
	for _, g := range sr.Tree[0][0] {
		kept = append(kept, g.Dsts...)
	}
	if len(kept) != 3 || kept[0] != 1 || kept[1] != 3 || kept[2] != 5 {
		t.Fatalf("pruned mesh targets = %v, want [1 3 5]", kept)
	}
}

func TestPruneSetPanicsOnBadMembers(t *testing.T) {
	rt := FullMesh(3).Routing()
	for _, bad := range [][]int{{3}, {-1}, {1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("PruneSet(%v) did not panic", bad)
				}
			}()
			rt.PruneSet(bad)
		}()
	}
}

// island is a 4-clique on one wire plus node 4, which only sends to 0:
// node 4 is unreachable from every other origin.
func island() *Topology {
	t := &Topology{Name: "island", N: 5, Wires: []Wire{{}}}
	for u := 0; u < 4; u++ {
		for v := 0; v < 4; v++ {
			if u != v {
				t.Edges = append(t.Edges, Edge{From: u, To: v})
			}
		}
	}
	t.Edges = append(t.Edges, Edge{From: 4, To: 0})
	return t
}

// Rebuilding a set's tables into a SetRouting another set left behind,
// on the same routing or on another topology of its N, gives exactly the
// tables a fresh PruneSet builds, and allocates nothing once the storage
// fits. The island leaves node 4 unreachable from every other origin, so
// stale member counts in its column show.
func TestPruneSetIntoMatchesPruneSet(t *testing.T) {
	const n = 5
	routings := []*Routing{Ring(n).Routing(), Star(n).Routing(), FullMesh(n).Routing(), island().Routing()}
	sets := [][]int{{0, 1, 2}, {4}, {0, 1, 2, 3, 4}, {1, 3}}
	for _, from := range routings {
		for _, was := range sets {
			for _, to := range routings {
				for _, members := range sets {
					sr := from.PruneSet(was)
					to.PruneSetInto(sr, members)
					if got, want := tables(sr), tables(to.PruneSet(members)); !reflect.DeepEqual(got, want) {
						t.Fatalf("set %v rebuilt over %v: %+v, PruneSet gives %+v", members, was, got, want)
					}
				}
			}
		}
	}
	sr := FullMesh(n).Routing().PruneSet(sets[2])
	for _, rt := range routings {
		if allocs := testing.AllocsPerRun(8, func() { rt.PruneSetInto(sr, sets[2]) }); allocs > 0 {
			t.Errorf("rebuilding into fitting storage: %.0f allocs, want 0", allocs)
		}
	}
}

// tables is sr without the storage it keeps for the next rebuild.
func tables(sr *SetRouting) SetRouting {
	return SetRouting{Member: sr.Member, Tree: sr.Tree, Sub: sr.Sub, Reach: sr.Reach}
}

// The set of everyone prunes nothing: PruneSet of every process gives
// exactly a routing's own full tables, every Member true, which the
// network multicasts to as its Everyone set.
func TestEveryoneIsThePrunedFullSet(t *testing.T) {
	for _, tp := range []*Topology{FullMesh(5), Clique(5), Ring(5), OneWayRing(5), Star(5), Geo(GeoConfig{Sites: 2, PerSite: 4}), island()} {
		rt := tp.Routing()
		all := make([]int, tp.N)
		for p := range all {
			all[p] = p
		}
		if got, want := tables(rt.PruneSet(all)), tables(&rt.SetRouting); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: PruneSet(everyone) = %+v, want the full tables %+v", tp.Name, got, want)
		}
	}
}
