package topo

import (
	"cmp"
	"fmt"
	"slices"
)

// TxGroup is one transmission a node performs when forwarding a
// multicast: a single wire occupancy that reaches Dsts (the node's tree
// children discovered over that wire). Dsts are ascending.
type TxGroup struct {
	Wire int32
	Dsts []int32
}

// Routing holds the precompiled forwarding state of a Topology. All
// tables are built once (deterministically — ties broken by ascending
// wire then destination) so the network's per-message hot path is pure
// table lookup and allocates nothing.
//
// Storage is O(N²) int32 entries plus the trees — the one-time price
// for O(hops) per message instead of O(N) scans; at n = 4096 the tables
// are on the order of a few hundred MB, so topologies beyond that
// should shard the simulation instead.
type Routing struct {
	N int

	// Next[u][v] is the node u forwards to when relaying a unicast
	// bound for v; Next[u][u] = u, and -1 marks v unreachable from u.
	// Hops follow each relay's own shortest-path tree, so path length
	// strictly decreases and routing always terminates.
	Next [][]int32
	// HopWire[u][v] is the wire of the hop u -> Next[u][v]; -1 when
	// unreachable or u == v.
	HopWire [][]int32
	// SetRouting is the set of everyone, every Member true: Tree[o][u]
	// lists u's children in o's shortest-path tree, grouped by
	// discovering wire, and Sub and Reach count every node.
	SetRouting
}

// Routing compiles (once) and returns the topology's routing tables,
// panicking on an invalid topology.
func (t *Topology) Routing() *Routing {
	t.once.Do(func() {
		if err := t.Validate(); err != nil {
			panic(err)
		}
		t.routing = compile(t)
	})
	return t.routing
}

// adj is a node's outgoing edges sorted by (wire, dst) — the canonical
// order every deterministic choice below derives from.
type adjEdge struct{ wire, dst int32 }

func compile(t *Topology) *Routing {
	n := t.N
	adjs := make([][]adjEdge, n)
	for _, e := range t.Edges {
		adjs[e.From] = append(adjs[e.From], adjEdge{wire: int32(e.Wire), dst: int32(e.To)})
	}
	complete := true
	for u := 0; u < n; u++ {
		a := adjs[u]
		slices.SortFunc(a, func(x, y adjEdge) int {
			if c := cmp.Compare(x.wire, y.wire); c != 0 {
				return c
			}
			return cmp.Compare(x.dst, y.dst)
		})
		if len(a) != n-1 {
			complete = false
		}
	}

	rt := &Routing{N: n, Next: newMatrix(n), HopWire: newMatrix(n), SetRouting: SetRouting{
		Member: make([]bool, n),
		Tree:   make([][][]TxGroup, n),
		Sub:    make([][]int32, n),
		Reach:  make([]int32, n),
	}}
	for v := range rt.Member {
		rt.Member[v] = true
	}
	if complete {
		compileComplete(rt, adjs)
		return rt
	}
	parent := make([]int32, n)
	parentWire := make([]int32, n)
	order := make([]int32, 0, n)
	for o := 0; o < n; o++ {
		compileOrigin(rt, adjs, int32(o), parent, parentWire, order[:0])
	}
	return rt
}

// newMatrix allocates an n×n int32 matrix filled with -1, backed by one
// contiguous slab.
func newMatrix(n int) [][]int32 {
	slab := make([]int32, n*n)
	for i := range slab {
		slab[i] = -1
	}
	m := make([][]int32, n)
	for i := range m {
		m[i] = slab[i*n : (i+1)*n]
	}
	return m
}

// compileComplete fills the tables for a graph where every node is
// directly connected to every other — FullMesh and Clique — skipping
// the per-origin searches: every route is the single direct hop and
// every tree is one level deep.
func compileComplete(rt *Routing, adjs [][]adjEdge) {
	n := rt.N
	subSlab := make([]int32, n*n)
	for i := range subSlab {
		subSlab[i] = 1
	}
	for o := 0; o < n; o++ {
		rt.Next[o][o] = int32(o)
		for _, e := range adjs[o] {
			rt.Next[o][e.dst] = e.dst
			rt.HopWire[o][e.dst] = e.wire
		}
		rt.Tree[o] = make([][]TxGroup, n)
		rt.Tree[o][o] = groupByWire(adjs[o])
		rt.Sub[o] = subSlab[o*n : (o+1)*n]
		rt.Sub[o][o] = int32(n)
		rt.Reach[o] = int32(n - 1)
	}
}

// groupByWire folds a sorted adjacency into transmit groups, one per
// distinct wire.
func groupByWire(a []adjEdge) []TxGroup {
	var groups []TxGroup
	for _, e := range a {
		if len(groups) == 0 || groups[len(groups)-1].Wire != e.wire {
			groups = append(groups, TxGroup{Wire: e.wire})
		}
		g := &groups[len(groups)-1]
		g.Dsts = append(g.Dsts, e.dst)
	}
	return groups
}

// compileOrigin runs one deterministic BFS from o and derives o's rows
// of every table. The scratch slices are caller-owned to keep the per-
// origin cost allocation-light.
func compileOrigin(rt *Routing, adjs [][]adjEdge, o int32, parent, parentWire []int32, order []int32) {
	n := rt.N
	for i := range parent {
		parent[i] = -1
	}
	parent[o] = o
	order = append(order, o)
	for head := 0; head < len(order); head++ {
		u := order[head]
		for _, e := range adjs[u] {
			if parent[e.dst] < 0 {
				parent[e.dst] = u
				parentWire[e.dst] = e.wire
				order = append(order, e.dst)
			}
		}
	}

	next, hop := rt.Next[o], rt.HopWire[o]
	next[o] = o
	// BFS order guarantees a node's parent is resolved before the node,
	// so first-hop tables build incrementally in one pass.
	for _, v := range order[1:] {
		if parent[v] == o {
			next[v] = v
			hop[v] = parentWire[v]
		} else {
			next[v] = next[parent[v]]
			hop[v] = hop[parent[v]]
		}
	}

	tree := make([][]TxGroup, n)
	// Children appear in order grouped by parent discovery sequence;
	// within one parent they were discovered in (wire, dst) order, so a
	// linear fold yields wire-ascending groups with ascending dsts.
	for _, v := range order[1:] {
		u := parent[v]
		if len(tree[u]) == 0 || tree[u][len(tree[u])-1].Wire != parentWire[v] {
			tree[u] = append(tree[u], TxGroup{Wire: parentWire[v]})
		}
		g := &tree[u][len(tree[u])-1]
		g.Dsts = append(g.Dsts, v)
	}
	rt.Tree[o] = tree

	sub := make([]int32, n)
	for _, v := range order {
		sub[v] = 1
	}
	for i := len(order) - 1; i > 0; i-- {
		v := order[i]
		sub[parent[v]] += sub[v]
	}
	rt.Sub[o] = sub
	rt.Reach[o] = int32(len(order) - 1)
}

// SetRouting holds the pruned multicast tables for one destination set:
// the full topology's per-origin spanning trees with every branch that
// reaches no set member cut off. A multicast addressed to the set rides
// these tables — non-member relays still forward (the physical network
// carries the copy) but only members count as destinations. The set of
// everyone prunes nothing: its tables are the Routing's own full trees.
type SetRouting struct {
	// Member[v] reports set membership.
	Member []bool
	// Tree[o][u] is the pruned transmit-group table: only children whose
	// subtree contains at least one member survive, in the full tree's
	// (wire, dst) order.
	Tree [][][]TxGroup
	// Sub[o][v] counts the set members in v's subtree of o's tree,
	// including v itself when it is a member: the member copies that die
	// if v's copy is lost.
	Sub [][]int32
	// Reach[o] counts the members reachable from o, excluding o — the
	// number of remote copies a set multicast from o creates.
	Reach []int32

	// The slabs every tree's transmit groups and destinations are cut
	// from, kept for the next PruneSetInto.
	txs  []TxGroup
	dsts []int32
}

// PruneSet derives the pruned multicast tables for a destination set
// from the compiled full trees. It panics on out-of-range or duplicated
// members — the set is code, not input.
func (r *Routing) PruneSet(members []int) *SetRouting {
	sr := new(SetRouting)
	r.PruneSetInto(sr, members)
	return sr
}

// PruneSetInto is PruneSet writing into sr, which is empty or holds the
// tables of any set on any routing of r's N: sr ends up deep-equal to
// PruneSet(members), and reuses its storage where it fits.
func (r *Routing) PruneSetInto(sr *SetRouting, members []int) {
	n := r.N
	if len(sr.Member) != n {
		subSlab, rowSlab := make([]int32, n*n), make([][]TxGroup, n*n)
		*sr = SetRouting{
			Member: make([]bool, n),
			Tree:   make([][][]TxGroup, n),
			Sub:    make([][]int32, n),
			Reach:  make([]int32, n),
		}
		for o := range sr.Sub {
			sr.Sub[o] = subSlab[o*n : (o+1)*n]
			sr.Tree[o] = rowSlab[o*n : (o+1)*n]
		}
	}
	member := sr.Member
	clear(member)
	for _, p := range members {
		if p < 0 || p >= n {
			panic(fmt.Sprintf("topo: set member %d out of range 0..%d", p, n-1))
		}
		if member[p] {
			panic(fmt.Sprintf("topo: set member %d listed twice", p))
		}
		member[p] = true
	}
	ntx, ndst := 0, 0
	for o := 0; o < n; o++ {
		sub := sr.Sub[o]
		clear(sub)
		countMembers(r.Tree[o], int32(o), member, sub)
		sr.Reach[o] = sub[o]
		if member[o] {
			sr.Reach[o]--
		}
		ntx, ndst = countKept(r.Tree[o], sub, ntx, ndst)
	}
	// Pruned transmit groups, cut from two slabs sized by the counts
	// above: keep children whose subtree holds a member, preserving the
	// full tree's group and destination order.
	txs, dsts := grow(sr.txs, ntx), grow(sr.dsts, ndst)
	for o := 0; o < n; o++ {
		sub, tree := sr.Sub[o], sr.Tree[o]
		for u, groups := range r.Tree[o] {
			start := len(txs)
			for _, g := range groups {
				from := len(dsts)
				for _, v := range g.Dsts {
					if sub[v] > 0 {
						dsts = append(dsts, v)
					}
				}
				if len(dsts) > from {
					txs = append(txs, TxGroup{Wire: g.Wire, Dsts: dsts[from:len(dsts):len(dsts)]})
				}
			}
			tree[u] = nil
			if len(txs) > start {
				tree[u] = txs[start:len(txs):len(txs)]
			}
		}
	}
	sr.txs, sr.dsts = txs, dsts
}

// countMembers fills sub[v] for u and every node below it in one origin's
// full tree: the set members in v's subtree, v included. It returns
// sub[u].
func countMembers(tree [][]TxGroup, u int32, member []bool, sub []int32) int32 {
	var c int32
	if member[u] {
		c = 1
	}
	for _, g := range tree[u] {
		for _, v := range g.Dsts {
			c += countMembers(tree, v, member, sub)
		}
	}
	sub[u] = c
	return c
}

// countKept adds to ntx and ndst the transmit groups and destinations
// that pruning one origin's full tree to sub keeps.
func countKept(tree [][]TxGroup, sub []int32, ntx, ndst int) (int, int) {
	for _, groups := range tree {
		for _, g := range groups {
			kept := 0
			for _, v := range g.Dsts {
				if sub[v] > 0 {
					kept++
				}
			}
			if kept > 0 {
				ntx++
				ndst += kept
			}
		}
	}
	return ntx, ndst
}

// grow returns s emptied, with room for n elements: s's own storage when
// it fits, a new slice of exactly n otherwise.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// String summarises the topology for headers and diagnostics.
func (t *Topology) String() string {
	return fmt.Sprintf("%s (n=%d, %d wires, %d edges)", t.Name, t.N, len(t.Wires), len(t.Edges))
}
