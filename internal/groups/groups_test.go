package groups

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/proto"
	"repro/internal/topo"
)

// covers asserts every process belongs to at least one group and local
// indices round-trip through the membership tables.
func covers(t *testing.T, m *GroupMap) {
	t.Helper()
	for p := 0; p < m.N(); p++ {
		if len(m.GroupsOf(proto.PID(p))) == 0 {
			t.Fatalf("%s: process %d in no group", m, p)
		}
		for _, g := range m.GroupsOf(proto.PID(p)) {
			if !m.Contains(g, proto.PID(p)) {
				t.Fatalf("%s: GroupsOf says %d in %d, Contains disagrees", m, p, g)
			}
			li := m.LocalIndex(g, proto.PID(p))
			if li < 0 || m.Members(g)[li] != proto.PID(p) {
				t.Fatalf("%s: LocalIndex(%d, %d) = %d does not round-trip", m, g, p, li)
			}
		}
	}
}

func TestDisjointGenerator(t *testing.T) {
	m := Disjoint(10, 3)
	covers(t, m)
	if m.NumGroups() != 3 {
		t.Fatalf("NumGroups = %d", m.NumGroups())
	}
	total := 0
	for g := 0; g < 3; g++ {
		size := len(m.Members(g))
		if size < 3 || size > 4 {
			t.Fatalf("group %d has %d members, want near-equal split of 10", g, size)
		}
		total += size
	}
	if total != 10 {
		t.Fatalf("groups overlap or miss processes: %d membership slots", total)
	}
	for p := 0; p < 10; p++ {
		if len(m.GroupsOf(proto.PID(p))) != 1 {
			t.Fatalf("disjoint map puts %d in %d groups", p, len(m.GroupsOf(proto.PID(p))))
		}
	}
}

func TestChainedGeneratorBridges(t *testing.T) {
	m := Chained(7, 3)
	covers(t, m)
	// Adjacent groups share exactly one bridge; non-adjacent none.
	overlap := func(a, b int) []proto.PID {
		var out []proto.PID
		for _, p := range m.Members(a) {
			if m.Contains(b, p) {
				out = append(out, p)
			}
		}
		return out
	}
	if len(overlap(0, 1)) != 1 || len(overlap(1, 2)) != 1 {
		t.Fatalf("adjacent overlaps = %v / %v, want one bridge each", overlap(0, 1), overlap(1, 2))
	}
	if len(overlap(0, 2)) != 0 {
		t.Fatalf("non-adjacent groups overlap: %v", overlap(0, 2))
	}
	bridge := overlap(0, 1)[0]
	if len(m.GroupsOf(bridge)) != 2 {
		t.Fatalf("bridge %d in %d groups, want 2", bridge, len(m.GroupsOf(bridge)))
	}
}

func TestFromSitesMatchesGeo(t *testing.T) {
	g := topo.Geo(topo.GeoConfig{Sites: 3, PerSite: 3})
	m := FromSites(g)
	covers(t, m)
	if m.NumGroups() != 3 {
		t.Fatalf("NumGroups = %d, want one per site", m.NumGroups())
	}
	for gi, site := range g.Groups {
		if len(m.Members(gi)) != len(site) {
			t.Fatalf("group %d has %d members, site has %d", gi, len(m.Members(gi)), len(site))
		}
	}
	if err := m.Validate(g.N, g); err != nil {
		t.Fatalf("site map invalid against its own topology: %v", err)
	}
}

func TestTrivialAndHome(t *testing.T) {
	if !Disjoint(5, 1).Trivial() {
		t.Fatal("Disjoint(5,1) not trivial")
	}
	if Disjoint(5, 2).Trivial() || Chained(5, 2).Trivial() {
		t.Fatal("multi-group maps claim trivial")
	}
	m := Chained(7, 3)
	for p := 0; p < 7; p++ {
		if got, want := m.Home(proto.PID(p)), m.GroupsOf(proto.PID(p))[0]; got != want {
			t.Fatalf("Home(%d) = %d, want lowest group %d", p, got, want)
		}
	}
}

func TestValidateRejectsMismatches(t *testing.T) {
	if err := Disjoint(6, 2).Validate(7, nil); err == nil {
		t.Fatal("N mismatch accepted")
	}
	// A group spanning two components of a disconnected graph is invalid.
	split := &topo.Topology{
		Name: "split", N: 4, Wires: []topo.Wire{{}, {}},
		Edges: []topo.Edge{
			{From: 0, To: 1, Wire: 0}, {From: 1, To: 0, Wire: 0},
			{From: 2, To: 3, Wire: 1}, {From: 3, To: 2, Wire: 1},
		},
	}
	if err := New(4, [][]proto.PID{{0, 1}, {2, 3}}).Validate(4, split); err != nil {
		t.Fatalf("component-aligned groups rejected: %v", err)
	}
	if err := Disjoint(4, 1).Validate(4, split); err == nil {
		t.Fatal("group spanning disconnected components accepted")
	}
}

func TestNewPanicsOnInvalidInput(t *testing.T) {
	bad := []func(){
		func() { New(0, nil) },
		func() { New(3, [][]proto.PID{}) },
		func() { New(3, [][]proto.PID{{}}) },
		func() { New(3, [][]proto.PID{{0, 3}}) },
		func() { New(3, [][]proto.PID{{0, 0}}) },
		func() { New(3, [][]proto.PID{{0, 1}}) }, // process 2 uncovered
		func() { Disjoint(3, 4) },
		func() { Chained(3, 3) },
	}
	for i, fn := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestSpecRoundTrip(t *testing.T) {
	maps := []*GroupMap{
		Disjoint(8, 4),
		Chained(7, 3),
		New(4, [][]proto.PID{{0, 1, 2}, {2, 3}}),
		FromSites(topo.Geo(topo.GeoConfig{Sites: 2, PerSite: 2})),
	}
	for _, m := range maps {
		got, err := FromSpec(m.Spec())
		if err != nil {
			t.Fatalf("%s: FromSpec failed: %v", m, err)
		}
		if got.N() != m.N() || got.NumGroups() != m.NumGroups() {
			t.Fatalf("%s: round-trip shape mismatch: %s", m, got)
		}
		for g := 0; g < m.NumGroups(); g++ {
			a, b := m.Members(g), got.Members(g)
			if len(a) != len(b) {
				t.Fatalf("%s: group %d size changed", m, g)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s: group %d member %d changed", m, g, i)
				}
			}
		}
	}
	// A header naming a generator that no longer exists fails by its name.
	for _, kind := range []string{"bogus", "cliqueoverlap"} {
		want := fmt.Sprintf("unknown group map kind %q", kind)
		if _, err := FromSpec(&Spec{Kind: kind, N: 7, K: 3}); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("kind %q: err = %v, want %q", kind, err, want)
		}
	}
	if _, err := FromSpec(&Spec{Kind: "disjoint", N: 2, K: 5}); err == nil {
		t.Fatal("invalid generator parameters accepted")
	}
}
