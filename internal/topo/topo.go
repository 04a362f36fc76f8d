// Package topo models the connectivity of the simulated network as an
// explicit directed graph, generalising the paper's single shared
// Ethernet to arbitrary segmented topologies.
//
// A Topology is a set of wires and a set of directed edges riding them.
// A wire is one contention domain — the generalisation of the paper's
// single network resource: every message hop crossing the wire occupies
// it for the paper's time unit, FIFO, exactly like netmodel's original
// medium. A wire with several edges is a broadcast segment (an Ethernet);
// a wire with one edge per direction is a point-to-point link. Each wire
// carries its own propagation delay and per-copy loss probability, so
// "LAN segment" and "lossy WAN link" are the same mechanism with
// different numbers.
//
// Named generators build the standard shapes: FullMesh (the paper's
// model — every process pair on one shared wire), Star, Ring, Clique
// (a dedicated wire per pair), and Geo (datacenter cliques joined by
// WAN links with distinct delay and loss). The zero Wire is the paper's
// medium — no delay, no loss —, which is what makes FullMesh
// byte-identical to the pre-topology netmodel.
//
// Routing over the graph is precompiled once per topology (see
// Routing): per-hop next-hop tables for unicasts and per-origin
// spanning trees for multicasts, so the per-message hot path does no
// graph work and allocates nothing.
package topo

import (
	"fmt"
	"slices"
	"sync"
	"time"
)

// Wire describes one contention domain of the network. Every message hop
// occupies its wire for the paper's time unit (netmodel's unit, 1 ms).
type Wire struct {
	// Delay is the propagation delay of the wire: a hop arrives Delay
	// after its time unit on the wire ends, while the wire itself is
	// already free for the next message. Zero means arrival when the unit
	// ends, the paper's model.
	Delay time.Duration `json:"delay,omitempty"`
	// Loss is the probability that a copy crossing the wire is lost at
	// the far end, drawn independently per copy on the network's fault
	// stream. Zero means a perfect wire.
	Loss float64 `json:"loss,omitempty"`
}

// Edge is a directed connection from one process to another riding a
// wire. Two processes may talk directly only if an edge joins them;
// everything else is relayed hop by hop along shortest paths.
type Edge struct {
	From, To int
	Wire     int // index into Topology.Wires
}

// Topology is an immutable connectivity graph over N processes.
// Construct one with a generator or by filling the fields directly,
// then hand it to the network via its Config. The first use compiles
// the routing tables; a Topology must not be mutated afterwards.
type Topology struct {
	// Name identifies the topology in trace headers and figures.
	Name string
	// N is the number of processes.
	N int
	// Wires lists the contention domains.
	Wires []Wire
	// Edges lists the directed connections.
	Edges []Edge
	// Groups optionally records site membership (the datacenters of a
	// Geo topology). It is advisory — routing ignores it — but fault
	// constructors like SiteCut and the trace header use it.
	Groups [][]int

	once    sync.Once
	routing *Routing
	// gen remembers the generator call for compact Spec serialisation.
	gen *genInfo
}

// Validate checks the graph for structural errors: out-of-range or
// self-looped edges, dangling wire indices, duplicate directed edges,
// loss probabilities outside [0,1], negative durations. The network
// panics on an invalid topology at construction — configuration is
// code, not input.
func (t *Topology) Validate() error {
	if t.N < 1 {
		return fmt.Errorf("topo: N = %d, need at least 1", t.N)
	}
	for i, w := range t.Wires {
		switch {
		case w.Delay < 0:
			return fmt.Errorf("topo: wire %d has negative delay %v", i, w.Delay)
		case w.Loss < 0 || w.Loss > 1:
			return fmt.Errorf("topo: wire %d loss %v outside [0,1]", i, w.Loss)
		}
	}
	dup := t.hasDuplicateEdge()
	for i, e := range t.Edges {
		switch {
		case e.From < 0 || e.From >= t.N || e.To < 0 || e.To >= t.N:
			return fmt.Errorf("topo: edge %d->%d out of range for N=%d", e.From, e.To, t.N)
		case e.From == e.To:
			return fmt.Errorf("topo: self edge at process %d", e.From)
		case e.Wire < 0 || e.Wire >= len(t.Wires):
			return fmt.Errorf("topo: edge %d->%d rides wire %d, have %d wires", e.From, e.To, e.Wire, len(t.Wires))
		case dup && slices.ContainsFunc(t.Edges[:i], func(f Edge) bool { return f.From == e.From && f.To == e.To }):
			return fmt.Errorf("topo: duplicate edge %d->%d", e.From, e.To)
		}
	}
	for gi, g := range t.Groups {
		for _, p := range g {
			if p < 0 || p >= t.N {
				return fmt.Errorf("topo: group %d contains process %d, want 0..%d", gi, p, t.N-1)
			}
		}
	}
	return nil
}

// hasDuplicateEdge reports whether two edges join the same ordered pair.
// It builds no map: Validate runs for every point a Runner call checks.
// Edges listed in increasing (From, To) order, as FullMesh lists them,
// have none; any other list is checked on a sorted copy of its pairs,
// each packed into one key. A yes is only a hint that Validate confirms
// edge by edge, so keys that collide for out-of-range ends do no harm.
func (t *Topology) hasDuplicateEdge() bool {
	key := func(e Edge) uint64 { return uint64(uint32(e.From))<<32 | uint64(uint32(e.To)) }
	increasing := true
	for i := 1; i < len(t.Edges) && increasing; i++ {
		increasing = key(t.Edges[i-1]) < key(t.Edges[i])
	}
	if increasing {
		return false
	}
	keys := make([]uint64, len(t.Edges))
	for i, e := range t.Edges {
		keys[i] = key(e)
	}
	slices.Sort(keys)
	for i := 1; i < len(keys); i++ {
		if keys[i] == keys[i-1] {
			return true
		}
	}
	return false
}

// FullMesh is the paper's network: every ordered process pair joined
// directly, all hops contending for one shared wire with default slot
// time. It is the model every pre-topology experiment ran on, and the
// network's behaviour on it is bit-identical to that era.
func FullMesh(n int) *Topology {
	t := &Topology{Name: fmt.Sprintf("fullmesh-%d", n), N: n, Wires: []Wire{{}},
		gen: &genInfo{kind: "fullmesh"}}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v {
				t.Edges = append(t.Edges, Edge{From: u, To: v, Wire: 0})
			}
		}
	}
	return t
}

// Star joins every process to hub 0 over a dedicated bidirectional
// spoke wire. Traffic between two spokes is relayed through the hub,
// whose CPU becomes the bottleneck — the centralised-sequencer shape.
func Star(n int) *Topology {
	t := &Topology{Name: fmt.Sprintf("star-%d", n), N: n, gen: &genInfo{kind: "star"}}
	for i := 1; i < n; i++ {
		w := len(t.Wires)
		t.Wires = append(t.Wires, Wire{})
		t.Edges = append(t.Edges,
			Edge{From: 0, To: i, Wire: w},
			Edge{From: i, To: 0, Wire: w})
	}
	if len(t.Wires) == 0 {
		t.Wires = []Wire{{}}
	}
	return t
}

// Ring joins process i to its neighbours (i±1) mod n, one dedicated
// bidirectional wire per adjacent pair. Multicasts propagate both ways
// around the ring, so latency grows with n while per-wire contention
// stays constant — the opposite trade to FullMesh.
func Ring(n int) *Topology {
	t := &Topology{Name: fmt.Sprintf("ring-%d", n), N: n, gen: &genInfo{kind: "ring"}}
	if n == 1 {
		t.Wires = []Wire{{}}
		return t
	}
	pairs := n
	if n == 2 {
		pairs = 1 // a 2-ring's two "sides" are the same pair
	}
	for i := 0; i < pairs; i++ {
		j := (i + 1) % n
		t.Wires = append(t.Wires, Wire{})
		t.Edges = append(t.Edges,
			Edge{From: i, To: j, Wire: i},
			Edge{From: j, To: i, Wire: i})
	}
	return t
}

// OneWayRing joins process i to its successor (i+1) mod n with a
// dedicated unidirectional wire: messages travel one way around the
// ring, so a unicast to the predecessor relays through every other
// process. It is the fully directed topology: each wire has exactly
// one transmitter and one receiver and no process shares a medium with
// any other.
func OneWayRing(n int) *Topology {
	t := &Topology{Name: fmt.Sprintf("onewayring-%d", n), N: n, gen: &genInfo{kind: "onewayring"}}
	if n == 1 {
		t.Wires = []Wire{{}}
		return t
	}
	for i := 0; i < n; i++ {
		t.Wires = append(t.Wires, Wire{})
		t.Edges = append(t.Edges, Edge{From: i, To: (i + 1) % n, Wire: i})
	}
	return t
}

// Clique joins every process pair with a dedicated bidirectional wire:
// full direct connectivity like FullMesh, but no shared medium at all —
// the switched-network limit where only CPUs contend.
func Clique(n int) *Topology {
	t := &Topology{Name: fmt.Sprintf("clique-%d", n), N: n, gen: &genInfo{kind: "clique"}}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			w := len(t.Wires)
			t.Wires = append(t.Wires, Wire{})
			t.Edges = append(t.Edges,
				Edge{From: u, To: v, Wire: w},
				Edge{From: v, To: u, Wire: w})
		}
	}
	if len(t.Wires) == 0 {
		t.Wires = []Wire{{}}
	}
	return t
}

// GeoConfig parameterises a geo-replicated topology.
type GeoConfig struct {
	// Sites is the number of datacenters; PerSite the processes in each.
	Sites, PerSite int
	// WAN describes each inter-datacenter link — a Delay and a Loss
	// where each datacenter's shared segment, the LAN, is the zero Wire:
	// a zero-delay, lossless Ethernet.
	WAN Wire
}

// Geo builds a geo-replicated topology: each site is a clique of
// processes sharing one LAN wire (an Ethernet per datacenter), and
// every site pair is joined by a dedicated WAN wire between the two
// sites' gateways (each site's lowest-numbered process). Cross-site
// traffic is relayed LAN → gateway → WAN → gateway → LAN. Groups
// records the site membership, which SiteCut and FaultPlan partitions
// act on.
func Geo(cfg GeoConfig) *Topology {
	if cfg.Sites < 1 || cfg.PerSite < 1 {
		panic(fmt.Sprintf("topo: Geo needs at least 1 site of 1 process, got %d x %d", cfg.Sites, cfg.PerSite))
	}
	n := cfg.Sites * cfg.PerSite
	t := &Topology{Name: fmt.Sprintf("geo-%dx%d", cfg.Sites, cfg.PerSite), N: n,
		gen: &genInfo{kind: "geo", sites: cfg.Sites, perSite: cfg.PerSite, wan: cfg.WAN}}
	member := func(site, i int) int { return site*cfg.PerSite + i }
	for s := 0; s < cfg.Sites; s++ {
		group := make([]int, cfg.PerSite)
		for i := range group {
			group[i] = member(s, i)
		}
		t.Groups = append(t.Groups, group)
		if cfg.PerSite > 1 {
			w := len(t.Wires)
			t.Wires = append(t.Wires, Wire{})
			for _, u := range group {
				for _, v := range group {
					if u != v {
						t.Edges = append(t.Edges, Edge{From: u, To: v, Wire: w})
					}
				}
			}
		}
	}
	for a := 0; a < cfg.Sites; a++ {
		for b := a + 1; b < cfg.Sites; b++ {
			w := len(t.Wires)
			t.Wires = append(t.Wires, cfg.WAN)
			ga, gb := member(a, 0), member(b, 0)
			t.Edges = append(t.Edges,
				Edge{From: ga, To: gb, Wire: w},
				Edge{From: gb, To: ga, Wire: w})
		}
	}
	if len(t.Wires) == 0 {
		t.Wires = []Wire{{}}
	}
	return t
}

// SiteCut returns the two process groups induced by cutting the listed
// sites away from the rest — the partition-along-the-WAN-cut, ready for
// the network's SetPartition or a FaultPlan partition event. It panics
// if the topology has no Groups or a site index is out of range.
func (t *Topology) SiteCut(sites ...int) [][]int {
	if len(t.Groups) == 0 {
		panic("topo: SiteCut on a topology without site groups")
	}
	cut := make(map[int]bool, len(sites))
	for _, s := range sites {
		if s < 0 || s >= len(t.Groups) {
			panic(fmt.Sprintf("topo: SiteCut site %d out of range, have %d sites", s, len(t.Groups)))
		}
		cut[s] = true
	}
	var in, out []int
	for s, g := range t.Groups {
		if cut[s] {
			in = append(in, g...)
		} else {
			out = append(out, g...)
		}
	}
	return [][]int{in, out}
}
