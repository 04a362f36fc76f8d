// Package groups generalizes the stack from atomic broadcast to genuine
// atomic multicast: processes are assigned to (possibly overlapping)
// groups, each group runs its own atomic broadcast instance over its
// topology subgraph, and a message addressed to several groups is
// ordered across them by a deterministic timestamp merge in the style of
// fault-tolerant multi-group total order protocols (Fritzke et al.;
// Sutra's "The Weakest Failure Detector for Genuine Atomic Multicast"
// frames the problem). The protocol is genuine: only members of a
// message's destination groups take protocol steps for it — other
// groups neither see the message nor pay ordering work, which is what
// makes aggregate shard-local throughput scale with the group count.
//
// The package has two halves:
//
//   - GroupMap (this file): the assignment of processes to groups, with
//     generators Disjoint and Chained (adjacent groups share a bridge
//     process), plus FromSites (a Geo topology's sites, 1:1), raw member
//     lists (New) and a compact Spec for trace headers;
//   - Router (router.go): the per-process protocol layer that owns the
//     per-group instances, disseminates destination-group-addressed
//     messages, and merges the per-group timestamp streams into one
//     total order on multi-group messages.
package groups

import (
	"fmt"
	"slices"

	"repro/internal/proto"
	"repro/internal/topo"
)

// GroupMap assigns the N processes of a simulation to groups. Groups may
// overlap; every process must belong to at least one group. Build one
// with a generator (Disjoint, Chained, FromSites) or from raw member lists
// via New, then carry it on Config.Groups / ClusterConfig.Groups or sweep
// it via Sweep.GroupMaps.
type GroupMap struct {
	n      int
	groups [][]proto.PID // per group, strictly ascending members
	of     [][]int       // per process, ascending group ids
	local  [][]int32     // local[g][p] = p's index within group g, -1 if absent
	gen    *Spec         // generator call, when built by one
}

// New builds a GroupMap from raw member lists. It panics on invalid
// input — the map is code, not input: members must be in 0..n-1, listed
// once per group, every group non-empty, and every process in at least
// one group.
func New(n int, members [][]proto.PID) *GroupMap {
	if n < 1 {
		panic(fmt.Sprintf("groups: n = %d, need at least 1", n))
	}
	if len(members) == 0 {
		panic("groups: no groups")
	}
	m := &GroupMap{
		n:      n,
		groups: make([][]proto.PID, len(members)),
		of:     make([][]int, n),
		local:  make([][]int32, len(members)),
	}
	for g, ms := range members {
		if len(ms) == 0 {
			panic(fmt.Sprintf("groups: group %d is empty", g))
		}
		own := append([]proto.PID(nil), ms...)
		slices.Sort(own)
		m.local[g] = make([]int32, n)
		for i := range m.local[g] {
			m.local[g][i] = -1
		}
		for i, p := range own {
			if p < 0 || int(p) >= n {
				panic(fmt.Sprintf("groups: group %d member %d out of range 0..%d", g, p, n-1))
			}
			if i > 0 && own[i-1] == p {
				panic(fmt.Sprintf("groups: group %d lists member %d twice", g, p))
			}
			m.local[g][p] = int32(i)
			m.of[p] = append(m.of[p], g)
		}
		m.groups[g] = own
	}
	for p, of := range m.of {
		if len(of) == 0 {
			panic(fmt.Sprintf("groups: process %d belongs to no group", p))
		}
	}
	return m
}

// N returns the number of processes the map covers.
func (m *GroupMap) N() int { return m.n }

// NumGroups returns the number of groups.
func (m *GroupMap) NumGroups() int { return len(m.groups) }

// Members returns group g's members, ascending. The slice is shared;
// callers must not mutate it.
func (m *GroupMap) Members(g int) []proto.PID { return m.groups[g] }

// GroupsOf returns the ascending group ids process p belongs to. The
// slice is shared; callers must not mutate it.
func (m *GroupMap) GroupsOf(p proto.PID) []int { return m.of[p] }

// Home returns the lowest-numbered group containing p — the default
// destination of p's shard-local traffic.
func (m *GroupMap) Home(p proto.PID) int { return m.of[p][0] }

// Contains reports whether process p is a member of group g.
func (m *GroupMap) Contains(g int, p proto.PID) bool { return m.local[g][p] >= 0 }

// LocalIndex returns p's index within group g, or -1 if p is not a
// member. Group protocol instances run in this local id space.
func (m *GroupMap) LocalIndex(g int, p proto.PID) proto.PID {
	return proto.PID(m.local[g][p])
}

// Dests returns a multicast's destination groups sorted, in a fresh
// slice. It panics unless they are one or more distinct group ids of this
// map — destinations are code, not input.
func (m *GroupMap) Dests(dests []int) []int {
	return m.sortDests(append([]int(nil), dests...), dests)
}

// sortDests sorts ds, a copy of dests, in place and returns it, with
// Dests's panic on a bad list. The router copies into a carve of its own.
func (m *GroupMap) sortDests(ds, dests []int) []int {
	slices.Sort(ds)
	ok := len(ds) > 0 && ds[0] >= 0 && ds[len(ds)-1] < len(m.groups)
	for i := 1; ok && i < len(ds); i++ {
		ok = ds[i-1] < ds[i]
	}
	if !ok {
		panic(fmt.Sprintf("groups: bad destination list %v (want one or more distinct group ids < %d)", dests, len(m.groups)))
	}
	return ds
}

// SameShape reports whether m and o assign the same processes to the same
// groups, whatever generator built each: the condition under which a
// Coordinator built for one may be reset for the other. Two nil maps have
// the same shape, a nil and a non-nil one do not.
func (m *GroupMap) SameShape(o *GroupMap) bool {
	if m == nil || o == nil {
		return m == o
	}
	return m.n == o.n && slices.EqualFunc(m.groups, o.groups, slices.Equal)
}

// Trivial reports whether the map is a single group covering every
// process — the plain atomic broadcast case. The experiment builder
// normalizes a trivial map to the ungrouped path, which keeps it
// bit-identical to a nil GroupMap.
func (m *GroupMap) Trivial() bool {
	return len(m.groups) == 1 && len(m.groups[0]) == m.n
}

// Validate checks the map against a process count and (optionally) a
// topology: n must match, and with a topology every member pair of every
// group must be mutually reachable, so each group's instance can
// actually communicate. Dissemination may relay through non-members —
// genuineness is about protocol steps, not physical forwarding.
func (m *GroupMap) Validate(n int, t *topo.Topology) error {
	if m.n != n {
		return fmt.Errorf("groups: map covers %d processes, config has N=%d", m.n, n)
	}
	if t == nil {
		return nil
	}
	if t.N != n {
		return fmt.Errorf("groups: topology %q is for %d processes, config has N=%d", t.Name, t.N, n)
	}
	rt := t.Routing()
	for g, ms := range m.groups {
		for _, p := range ms {
			for _, q := range ms {
				if p != q && rt.Next[p][q] < 0 {
					return fmt.Errorf("groups: group %d members %d and %d are not connected in topology %q", g, p, q, t.Name)
				}
			}
		}
	}
	return nil
}

// String names the map compactly for labels and diagnostics.
func (m *GroupMap) String() string {
	if m.gen != nil && m.gen.Kind != "raw" {
		return fmt.Sprintf("%s(n=%d,k=%d)", m.gen.Kind, m.n, len(m.groups))
	}
	return fmt.Sprintf("groups(n=%d,k=%d)", m.n, len(m.groups))
}

// Disjoint splits n processes into k contiguous disjoint groups of
// near-equal size — the pure sharding end of the overlap spectrum. It
// panics unless 1 <= k <= n.
func Disjoint(n, k int) *GroupMap {
	if k < 1 || k > n {
		panic(fmt.Sprintf("groups: Disjoint(n=%d, k=%d) needs 1 <= k <= n", n, k))
	}
	members := make([][]proto.PID, k)
	start := 0
	for g := 0; g < k; g++ {
		size := n / k
		if g < n%k {
			size++
		}
		for i := 0; i < size; i++ {
			members[g] = append(members[g], proto.PID(start+i))
		}
		start += size
	}
	m := New(n, members)
	m.gen = &Spec{Kind: "disjoint", N: n, K: k}
	return m
}

// Chained splits n processes into k groups where adjacent groups share
// exactly one bridge process — the chain of overlaps that makes
// cross-group ordering pass through bridges. It panics unless the chain
// fits: k >= 1 and n >= k+1 for k >= 2 (each group needs at least two
// members so bridges do not coincide).
func Chained(n, k int) *GroupMap {
	if k == 1 {
		m := Disjoint(n, 1)
		m.gen = &Spec{Kind: "chained", N: n, K: 1}
		return m
	}
	if k < 1 || n < k+1 {
		panic(fmt.Sprintf("groups: Chained(n=%d, k=%d) needs n >= k+1", n, k))
	}
	// k groups over n processes with k-1 shared bridges: n+k-1 membership
	// slots, spread as evenly as possible, larger groups first.
	slots := n + k - 1
	members := make([][]proto.PID, k)
	start := 0
	for g := 0; g < k; g++ {
		size := slots / k
		if g < slots%k {
			size++
		}
		for i := 0; i < size; i++ {
			members[g] = append(members[g], proto.PID(start+i))
		}
		start += size - 1 // the last member bridges into the next group
	}
	m := New(n, members)
	m.gen = &Spec{Kind: "chained", N: n, K: k}
	return m
}

// FromSites builds the group map induced by a topology's site groups —
// each Geo site becomes one group, 1:1. It panics if the topology
// declares no groups.
func FromSites(t *topo.Topology) *GroupMap {
	if len(t.Groups) == 0 {
		panic(fmt.Sprintf("groups: topology %q declares no site groups", t.Name))
	}
	return New(t.N, proto.PIDGroups(t.Groups))
}

// Spec is the compact serializable description of a GroupMap — the
// generator call when the map came from one, raw member lists otherwise.
// Trace headers embed it so a replay rebuilds the exact map.
type Spec struct {
	Kind string        `json:"kind"` // disjoint | chained | raw
	N    int           `json:"n"`
	K    int           `json:"k,omitempty"`   // group count for generated maps
	Raw  [][]proto.PID `json:"raw,omitempty"` // member lists for raw maps
}

// Spec returns the map's serializable description.
func (m *GroupMap) Spec() *Spec {
	if m.gen != nil {
		return m.gen
	}
	return &Spec{Kind: "raw", N: m.n, Raw: m.groups}
}

// FromSpec rebuilds a GroupMap from its description; it is Spec's
// inverse and errors (rather than panics) on unknown kinds or invalid
// parameters — specs cross process boundaries, so they are input.
func FromSpec(s *Spec) (m *GroupMap, err error) {
	defer func() {
		if r := recover(); r != nil {
			m, err = nil, fmt.Errorf("groups: invalid spec: %v", r)
		}
	}()
	switch s.Kind {
	case "disjoint":
		return Disjoint(s.N, s.K), nil
	case "chained":
		return Chained(s.N, s.K), nil
	case "raw":
		return New(s.N, s.Raw), nil
	default:
		return nil, fmt.Errorf("groups: unknown group map kind %q", s.Kind)
	}
}
