package topo

import "fmt"

// Spec is the JSON-friendly image of a Topology, embedded in trace
// headers so recorded replications replay on the exact graph they ran
// on. Generated topologies serialise as their generator call — compact
// and reconstruction-exact even at thousands of processes — while
// hand-built graphs fall back to a full wire/edge dump. Durations are
// nanoseconds (time.Duration's integer image).
type Spec struct {
	// Gen names the generator: "fullmesh", "star", "ring", "onewayring",
	// "clique" or "geo". Empty for hand-built topologies, which carry
	// Wires/Edges.
	Gen string `json:"gen,omitempty"`
	N   int    `json:"n"`
	// Geo parameters, set when Gen is "geo".
	Sites   int   `json:"sites,omitempty"`
	PerSite int   `json:"perSite,omitempty"`
	WAN     *Wire `json:"wan,omitempty"`
	// Raw graph, set when Gen is empty.
	Name   string   `json:"name,omitempty"`
	Wires  []Wire   `json:"wires,omitempty"`
	Edges  [][3]int `json:"edges,omitempty"`
	Groups [][]int  `json:"groups,omitempty"`
}

// genInfo remembers the generator call that built a Topology.
type genInfo struct {
	kind           string
	sites, perSite int
	wan            Wire
}

// Spec returns the topology's serialisable image.
func (t *Topology) Spec() Spec {
	if g := t.gen; g != nil {
		s := Spec{Gen: g.kind, N: t.N}
		if g.kind == "geo" {
			s.Sites, s.PerSite = g.sites, g.perSite
			if g.wan != (Wire{}) {
				wan := g.wan
				s.WAN = &wan
			}
		}
		return s
	}
	s := Spec{N: t.N, Name: t.Name, Wires: t.Wires, Groups: t.Groups}
	s.Edges = make([][3]int, len(t.Edges))
	for i, e := range t.Edges {
		s.Edges[i] = [3]int{e.From, e.To, e.Wire}
	}
	return s
}

// FromSpec rebuilds the Topology a Spec describes. Generated specs go
// back through their generator, so the result is structurally identical
// to the original; raw specs rebuild the graph verbatim. Unknown
// generators are an error — replaying a trace from a newer writer must
// fail loudly — and so are parameters a generator panics on: specs cross
// process boundaries, so they are input.
func FromSpec(s Spec) (t *Topology, err error) {
	defer func() {
		if r := recover(); r != nil {
			t, err = nil, fmt.Errorf("topo: invalid spec: %v", r)
		}
	}()
	switch s.Gen {
	case "":
	case "fullmesh":
		return FullMesh(s.N), nil
	case "star":
		return Star(s.N), nil
	case "ring":
		return Ring(s.N), nil
	case "onewayring":
		return OneWayRing(s.N), nil
	case "clique":
		return Clique(s.N), nil
	case "geo":
		cfg := GeoConfig{Sites: s.Sites, PerSite: s.PerSite}
		if s.WAN != nil {
			cfg.WAN = *s.WAN
		}
		return Geo(cfg), nil
	default:
		return nil, fmt.Errorf("topo: unknown generator %q in spec", s.Gen)
	}
	t = &Topology{Name: s.Name, N: s.N, Wires: s.Wires, Groups: s.Groups}
	t.Edges = make([]Edge, len(s.Edges))
	for i, e := range s.Edges {
		t.Edges[i] = Edge{From: e[0], To: e[1], Wire: e[2]}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
