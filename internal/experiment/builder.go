package experiment

import (
	"fmt"
	"slices"

	"repro/internal/ctabcast"
	"repro/internal/fd"
	"repro/internal/gm"
	"repro/internal/groups"
	"repro/internal/hbfd"
	"repro/internal/netmodel"
	"repro/internal/proto"
	"repro/internal/seqabcast"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/workload"
)

// CoreConfig describes one simulated system: which algorithm, on what
// network, under which detectors, faults and load. The experiment Runner
// (one system per replication) and the interactive facade
// (repro.NewCluster) each translate their own configuration into a
// CoreConfig, check it once with Validate and hand it to NewCore;
// everything between the description and the running system is decided
// here and nowhere else.
type CoreConfig struct {
	// Algorithm selects the protocol stack (FD, GM or GMNonUniform).
	Algorithm Algorithm
	// N is the number of processes.
	N int
	// Lambda is the network model's CPU/wire cost ratio (already
	// defaulted; 1 reproduces the paper).
	Lambda float64
	// Topology is the connectivity graph to route over; nil selects the
	// paper's full mesh on one shared wire.
	Topology *topo.Topology
	// Groups, if non-nil and non-trivial, shards the system: every group
	// runs its own protocol instance (over the topology subgraph its
	// members span) and messages are genuine atomic multicasts addressed
	// to destination groups, cross-ordered by timestamp merge. A trivial
	// map (one group covering everyone) is normalized to nil, keeping the
	// plain broadcast path bit-identical.
	Groups *groups.GroupMap
	// CrossShard is the fraction of Broadcast calls addressed to a second
	// group besides the sender's home group (groups mode only), in
	// [0, 1]. A ShardMix load event changes it mid-run.
	CrossShard float64
	// QoS parameterises the modelled failure detectors.
	QoS fd.QoS
	// Detector, if non-nil, wraps every endpoint in the concrete
	// heartbeat failure detector of internal/hbfd, which replaces the
	// modelled detectors: NewCore runs them silent, whatever QoS says.
	Detector *Heartbeat
	// Renumber enables the FD algorithm's coordinator renumbering.
	Renumber bool
	// Seed is the root seed of the run's random streams.
	Seed uint64
	// PreCrashed lists processes crashed long before the start — the
	// failure pattern's value at time zero, which is configuration, not a
	// plan event. They are outside the initial GM view and suspected by
	// every detector from the start (proto.System.PreCrash).
	PreCrashed []proto.PID
	// Plan is the fault timeline; NewCore installs it on Core.Faults.
	Plan *FaultPlan
	// Throughput is the total rate of the Poisson workload StartLoad
	// starts: every live sender fires at Throughput/N.
	Throughput float64
	// Load is the workload-shaping timeline; StartLoad installs it on
	// Core.Loads.
	Load *LoadPlan
	// Deliver observes every A-delivery at every process; at is the
	// delivery instant. It must be non-nil.
	Deliver func(p proto.PID, id proto.MsgID, body any, at sim.Time)
	// OnView, if non-nil, observes view installations (GM algorithms
	// only).
	OnView func(p proto.PID, v gm.View, at sim.Time)
}

// endpointSpec is what a stack needs, besides the runtime it runs on, to
// build one protocol endpoint.
type endpointSpec struct {
	deliver func(id proto.MsgID, body any)
	// onView, if non-nil, observes the views a membership-based endpoint
	// enters; the other stacks ignore it.
	onView func(v gm.View)
	// members is the initial membership in the runtime's id space (nil
	// means everyone); seqBase is the number of message IDs earlier
	// incarnations of the process consumed.
	members []proto.PID
	seqBase uint64
	// renumber is CoreConfig.Renumber.
	renumber bool
}

// stack is one row of the algorithm table: the only place that knows
// which protocol an Algorithm runs and how it comes back from a crash.
// Adding an algorithm is adding a row (and its Algorithm constant).
type stack struct {
	// build constructs one endpoint on rt: the handler, the A-broadcast
	// entry point and, for stacks that catch up in place, the Resume hook
	// arming the catch-up probe.
	build func(rt proto.Runtime, s endpointSpec) groups.Endpoint
	// reset returns a handler build made to the state build(rt, s) would
	// leave a new one in, on the handler's own runtime (Core.endpoint).
	reset func(h proto.Handler, s endpointSpec)
	// rejoins selects the recovery policy. A rejoining stack models a true
	// crash-recovery: a fresh incarnation starts excluded, rejoins through
	// its membership service and catches up via state transfer. The others
	// are crash-stop, so recovery is the end of a long outage: the process
	// resumes with its state intact and Resume closes the gap.
	rejoins bool
}

var stacks = [...]stack{
	FD: {
		build: func(rt proto.Runtime, s endpointSpec) groups.Endpoint {
			proc := ctabcast.New(rt, chandraToueg(s))
			return groups.Endpoint{Handler: proc, ABroadcast: proc.ABroadcast, Resume: proc.Resume}
		},
		reset: func(h proto.Handler, s endpointSpec) { h.(*ctabcast.Process).Reset(chandraToueg(s)) },
	},
	GM:           sequencer(true),
	GMNonUniform: sequencer(false),
}

// chandraToueg configures the FD stack's endpoint.
func chandraToueg(s endpointSpec) ctabcast.Config {
	return ctabcast.Config{Deliver: s.deliver, Renumber: s.renumber}
}

// sequencer is the fixed-sequencer stack's row in its uniform or
// non-uniform variant.
func sequencer(uniform bool) stack {
	config := func(s endpointSpec) seqabcast.Config {
		return seqabcast.Config{
			Deliver:        s.deliver,
			Uniform:        uniform,
			InitialMembers: s.members,
			SeqBase:        s.seqBase,
			OnView:         s.onView,
		}
	}
	return stack{
		build: func(rt proto.Runtime, s endpointSpec) groups.Endpoint {
			proc := seqabcast.New(rt, config(s))
			return groups.Endpoint{Handler: proc, ABroadcast: proc.ABroadcast}
		},
		reset:   func(h proto.Handler, s endpointSpec) { h.(*seqabcast.Process).Reset(config(s)) },
		rejoins: true,
	}
}

// stackOf returns the table row of a, or nil for an unknown algorithm.
func stackOf(a Algorithm) *stack {
	if a < 0 || int(a) >= len(stacks) || stacks[a].build == nil {
		return nil
	}
	return &stacks[a]
}

// grouped reports whether the description runs in groups mode.
func (cfg *CoreConfig) grouped() bool {
	return cfg.Groups != nil && !cfg.Groups.Trivial()
}

// Validate is the one statement of what a valid system is. Both shells
// call it once per description — the Runner per experiment point, the
// facade per cluster — and reject with its error; NewCore itself only
// keeps backstop panics, so that replications of an already-checked point
// do not pay for the checks again.
func (cfg CoreConfig) Validate() error {
	switch {
	case stackOf(cfg.Algorithm) == nil:
		return fmt.Errorf("experiment: unknown algorithm %d", int(cfg.Algorithm))
	case cfg.N < 1:
		return fmt.Errorf("experiment: N = %d", cfg.N)
	case cfg.Throughput < 0 || cfg.Throughput != cfg.Throughput || cfg.Throughput > maxRate:
		return fmt.Errorf("experiment: throughput %v, want 0..%g msgs/s", cfg.Throughput, float64(maxRate))
	case cfg.Lambda < 0 || cfg.Lambda != cfg.Lambda:
		return fmt.Errorf("experiment: Lambda = %v, want a non-negative CPU/wire cost ratio", cfg.Lambda)
	case cfg.Topology != nil && cfg.Topology.N != cfg.N:
		return fmt.Errorf("experiment: topology %q is for %d processes, config has N=%d", cfg.Topology.Name, cfg.Topology.N, cfg.N)
	case cfg.Detector != nil && (cfg.Detector.Interval < 0 || cfg.Detector.Timeout < 0):
		return fmt.Errorf("experiment: heartbeat Interval = %v, Timeout = %v, want no negative duration (zero selects the default)", cfg.Detector.Interval, cfg.Detector.Timeout)
	}
	if err := cfg.QoS.Validate(); err != nil {
		return err
	}
	if cfg.Topology != nil {
		if err := cfg.Topology.Validate(); err != nil {
			return err
		}
	}
	if cfg.Groups != nil {
		if err := cfg.Groups.Validate(cfg.N, cfg.Topology); err != nil {
			return err
		}
	}
	if err := cfg.checkPlan(orEmpty(cfg.Plan).Events); err != nil {
		return err
	}
	if err := cfg.checkLoad(orEmpty(cfg.Load).Events); err != nil {
		return err
	}
	if cfg.CrossShard < 0 || cfg.CrossShard > 1 || cfg.CrossShard != cfg.CrossShard {
		return fmt.Errorf("experiment: CrossShard = %v, want a fraction in [0, 1]", cfg.CrossShard)
	}
	if cfg.CrossShard != 0 && !cfg.grouped() {
		return fmt.Errorf("experiment: CrossShard without a (non-trivial) Groups map")
	}
	for i, p := range cfg.PreCrashed {
		if p < 0 || int(p) >= cfg.N {
			return fmt.Errorf("experiment: pre-crashed process %d, want 0..%d", p, cfg.N-1)
		}
		if slices.Contains(cfg.PreCrashed[:i], p) {
			return fmt.Errorf("experiment: pre-crashed process %d listed twice", p)
		}
	}
	if pre := len(cfg.PreCrashed); pre >= (cfg.N+1)/2 {
		return fmt.Errorf("experiment: %d pre-crashes exceed the f < n/2 bound for n = %d", pre, cfg.N)
	}
	return nil
}

// checkPlan states the rules fault events must meet on this system: the
// configured Plan's at validation, the one event of an interactive Apply.
func (cfg *CoreConfig) checkPlan(events []PlanEvent) error {
	if err := validate("plan", events, cfg.N); err != nil {
		return err
	}
	if hasEvent[Recover](events) && cfg.grouped() && stackOf(cfg.Algorithm).rejoins {
		return fmt.Errorf("experiment: crash-recovery is unsupported for %v in groups mode (it recovers by rejoining, and group instances have no per-group rejoin)", cfg.Algorithm)
	}
	return nil
}

// checkLoad is checkPlan's load-side sibling.
func (cfg *CoreConfig) checkLoad(events []LoadEvent) error {
	if err := validate("load", events, cfg.N); err != nil {
		return err
	}
	if hasEvent[ShardMix](events) && !cfg.grouped() {
		return fmt.Errorf("experiment: shardmix load event without a (non-trivial) Groups map")
	}
	return nil
}

// Core is one assembled simulated system: engine, network, detectors,
// per-process protocol stacks, the fault and load installers and the
// groups-mode workload mix. The exported slices are live state shared
// with the caller.
type Core struct {
	Eng *sim.Engine
	Sys *proto.System
	// Bcast[p] is process p's raw A-broadcast entry point (in groups mode,
	// a multicast to p's home group); recovery refreshes the entries of
	// rebuilt incarnations in place. It bypasses Broadcast, so neither
	// SentBy nor History sees the call: cmd/bench's drive is the one
	// bypass left, and it increments SentBy itself (ROADMAP 16).
	Bcast []func(body any) proto.MsgID
	// SentBy counts the A-broadcasts issued per process; a recovered
	// rejoining incarnation continues its ID sequence from it.
	SentBy []uint64
	// Members lists the processes alive at start (everyone not
	// pre-crashed), ascending: the initial GM view and the workload's
	// senders.
	Members []proto.PID
	// History, if non-nil, records the run for the specification checker:
	// Broadcast and Multicast feed it every message with its destinations,
	// deliver every A-delivery and Recover every rejoin, and nothing else
	// does. Reset leaves it nil; set it before the run.
	History *proto.History
	// Coord is the group layer's coordinator, non-nil only in groups
	// mode.
	Coord *groups.Coordinator
	// Faults is the system's single fault-injection path, with
	// CoreConfig.Plan already installed; shells hook its OnEvent.
	Faults Faults
	// Loads is the system's single workload-shaping path, built by
	// StartLoad.
	Loads *Loads

	// cfg is the description, with Groups normalized.
	cfg   CoreConfig
	stack *stack
	// ends lists every endpoint the system runs, process-major: on the
	// ungrouped path ends[p] is process p's current incarnation, built from
	// the recipe specs[p]; in groups mode ends[first[p]:first[p+1]] are
	// process p's per-group instances, in ascending group order.
	ends  []groups.Endpoint
	first []int
	specs []endpointSpec
	// crossFrac and mixRng drive the groups-mode destination choice of
	// Broadcast. The dedicated "mix" stream is drawn only when crossFrac
	// is positive, so a zero fraction consumes no randomness. mixDests is
	// Broadcast's scratch for the destination list it returns.
	crossFrac float64
	mixRng    *sim.Rand
	mixDests  [2]int
	// The workload StartLoad starts, kept for the next one: sources[p] is
	// p's Poisson source once p has been a sender, live[p] the same for
	// this run's senders only (what Loads acts on), senders this run's
	// sender list, loads the installer behind Loads. fire is this run's
	// arrival callback.
	sources, live []*workload.Poisson
	senders       []int
	loads         *Loads
	fire          func(sender int)
}

// NewCore builds the system cfg describes, starts it and installs the
// fault plan: Reset on an empty Core.
func NewCore(cfg CoreConfig) *Core {
	c := new(Core)
	c.Reset(cfg)
	return c
}

// Reset turns c into the system cfg describes, starts it and installs the
// fault plan. The construction order — engine, network configuration,
// root random stream, protocol system, per-process endpoints, pre-crashes,
// start, plan — is observable through the forked random streams and the
// event sequence and must not be reordered: simulations are bit-for-bit
// reproductions of it, and the run that follows is bit for bit the run on
// a new Core. Reset expects a description that passed Validate and panics
// on a malformed one only as a backstop.
//
// What the previous run built is reset in place where it can be, so its
// free lists, pools, tables and logs stay warm: the engine always; the
// network, rebound to cfg's topology, and the detectors when cfg.N
// repeats; the endpoints when both runs run one algorithm, both or
// neither behind a heartbeat detector (of whatever tuning), and are
// ungrouped or run group maps of one shape (GroupMap.SameShape) — then
// the group coordinator, its routers and their instances too. Nothing
// else of the previous run survives — queued events, crashes and
// pre-crashes, partitions and link faults, a rejoined incarnation's
// identity (the process's endpoint takes its original spec again),
// suspicions, SentBy and Members, and the hooks it installed
// (Net.SetTrace, Faults.OnEvent, Loads, Deliver, History).
func (c *Core) Reset(cfg CoreConfig) {
	cfg = cfg.normalized()
	keepSys := c.Sys != nil && c.Sys.N() == cfg.N
	keepEnds := keepSys && cfg.Algorithm == c.cfg.Algorithm &&
		(c.cfg.Detector == nil) == (cfg.Detector == nil) && cfg.Groups.SameShape(c.cfg.Groups)
	if c.Eng == nil {
		c.Eng = sim.New()
	} else {
		c.Eng.Reset()
	}
	if keepSys {
		c.Sys.Reset(cfg.network(), cfg.QoS, sim.NewRand(cfg.Seed))
	} else {
		c.Sys = proto.NewSystem(c.Eng, cfg.network(), cfg.QoS, sim.NewRand(cfg.Seed))
	}
	old := *c
	*c = Core{
		Eng:     old.Eng,
		Sys:     old.Sys,
		Members: old.Members[:0],
		Faults:  Faults{eng: old.Eng, apply: old.Faults.apply},
		cfg:     cfg,
		stack:   stackOf(cfg.Algorithm),
		senders: old.senders,
	}
	if c.Faults.apply == nil {
		c.Faults.apply = func(ev PlanEvent) { ev.apply(c) }
	}
	if keepSys {
		c.Bcast, c.SentBy, c.sources, c.live, c.loads = old.Bcast, old.SentBy, old.sources, old.live, old.loads
		clear(c.SentBy)
	} else {
		c.Bcast, c.SentBy = make([]func(any) proto.MsgID, cfg.N), make([]uint64, cfg.N)
	}
	c.members()
	if cfg.Groups != nil {
		c.crossFrac = cfg.CrossShard
		c.mixRng = sim.NewRand(cfg.Seed).Fork("mix")
		if keepEnds {
			// The system's reset kept every router as its process's root
			// handler, and Bcast's entries multicast through them.
			c.Coord, c.ends, c.first = old.Coord, old.ends, old.first
			c.Coord.Reset(cfg.Groups, cfg.PreCrashed)
		} else {
			c.buildGroups()
		}
		c.start()
		return
	}
	c.ends, c.specs = old.ends, old.specs
	if !keepEnds {
		c.ends, c.specs = make([]groups.Endpoint, cfg.N), make([]endpointSpec, cfg.N)
	}
	for p := range c.specs {
		pid, spec := proto.PID(p), &c.specs[p]
		if spec.deliver == nil || (spec.onView != nil) != (cfg.OnView != nil) {
			*spec = c.spec(p)
		}
		spec.members, spec.renumber = c.Members, cfg.Renumber
		ep := &c.ends[p]
		c.endpoint(c.Sys.Proc(pid), *spec, ep)
		c.Sys.SetHandler(pid, ep.Handler)
		c.Bcast[p] = ep.ABroadcast
	}
	c.start()
}

// normalized is the description a Core runs: backstop checks passed, a
// trivial group map dropped and the modelled detectors silenced under a
// heartbeat detector.
func (cfg CoreConfig) normalized() CoreConfig {
	if cfg.Deliver == nil {
		panic("experiment: NewCore requires a Deliver callback")
	}
	if stackOf(cfg.Algorithm) == nil {
		panic(fmt.Sprintf("experiment: unknown algorithm %v", cfg.Algorithm))
	}
	if !cfg.grouped() {
		// One group covering everyone is plain atomic broadcast: use the
		// ungrouped path so the run is bit-identical to a nil map.
		cfg.Groups = nil
	}
	if cfg.Detector != nil {
		cfg.QoS = fd.QoS{}
	}
	return cfg
}

// network is the description's network model configuration.
func (cfg *CoreConfig) network() netmodel.Config {
	return netmodel.Config{
		N:        cfg.N,
		Lambda:   sim.Millis(cfg.Lambda),
		Topology: cfg.Topology,
	}
}

// members fills Members: everyone not pre-crashed, ascending.
func (c *Core) members() {
	for p := proto.PID(0); int(p) < c.cfg.N; p++ {
		if !slices.Contains(c.cfg.PreCrashed, p) {
			c.Members = append(c.Members, p)
		}
	}
}

// spec is process p's endpoint recipe on the ungrouped path.
func (c *Core) spec(p int) endpointSpec {
	pid := proto.PID(p)
	spec := endpointSpec{members: c.Members, renumber: c.cfg.Renumber}
	spec.deliver = func(id proto.MsgID, body any) {
		c.deliver(pid, id, body, c.Eng.Now())
	}
	if c.cfg.OnView != nil {
		spec.onView = func(v gm.View) { c.cfg.OnView(pid, v, c.Eng.Now()) }
	}
	return spec
}

// start is the tail of Reset: pre-crashes, start, plan.
func (c *Core) start() {
	for _, p := range c.cfg.PreCrashed {
		c.Sys.PreCrash(p)
	}
	c.Sys.Start()
	c.Faults.Install(orEmpty(c.cfg.Plan).Events)
}

// endpoint makes *ep the endpoint of the configured stack spec describes:
// it builds one on rt into an empty ep and resets a built one in place, on
// its own runtime. With the concrete heartbeat detector configured the
// endpoint runs behind it: the wrapper's runtime answers Suspects from
// heartbeats, the wrapper is the outermost handler and contributes the
// Restart hook, and a reset resets the wrapper, then the inner handler.
func (c *Core) endpoint(rt proto.Runtime, spec endpointSpec, ep *groups.Endpoint) {
	hb := c.cfg.Detector
	switch {
	case ep.Handler == nil && hb == nil:
		*ep = c.stack.build(rt, spec)
	case ep.Handler == nil:
		w := hbfd.Wrap(rt, *hb, func(inner proto.Runtime) proto.Handler {
			*ep = c.stack.build(inner, spec)
			return ep.Handler
		})
		ep.Handler, ep.Restart = w, w.Restart
	case hb == nil:
		c.stack.reset(ep.Handler, spec)
	default:
		w := ep.Handler.(*hbfd.Wrapper)
		w.Reset(*hb)
		c.stack.reset(w.Inner(), spec)
	}
}

// rejoin builds a recovered incarnation of process p of a rejoining stack
// on rt and makes it p's current endpoint: its initial view omits itself
// (so it starts excluded and rejoins through the membership service) and
// its message IDs continue the previous incarnations' sequence.
func (c *Core) rejoin(p int, rt proto.Runtime) proto.Handler {
	spec := c.specs[p]
	spec.members = withoutPID(c.Members, proto.PID(p))
	spec.seqBase = c.SentBy[p]
	ep := &c.ends[p]
	*ep = groups.Endpoint{}
	c.endpoint(rt, spec, ep)
	c.Bcast[p] = ep.ABroadcast
	return ep.Handler
}

// buildGroups assembles the groups-mode system: one groups.Router per
// process as the root handler, owning one protocol instance per group
// the process belongs to. Each instance is the same stack the ungrouped
// path builds, run in the group's local id space, and the router's
// timestamp merge provides the cross-group total order.
func (c *Core) buildGroups() {
	cfg, sys := &c.cfg, c.Sys
	instance := func(ic groups.InstanceConfig, ep *groups.Endpoint) {
		built := ep.Handler != nil
		c.endpoint(ic.Runtime, c.groupSpec(ic), ep)
		if !built {
			c.ends = append(c.ends, *ep)
		}
	}
	// The routers are built in process order and each builds its instances
	// in group order, so the hook appends ends process-major.
	c.first = make([]int, cfg.N+1)
	for p := 0; p < cfg.N; p++ {
		c.first[p+1] = c.first[p] + len(cfg.Groups.GroupsOf(proto.PID(p)))
	}
	c.ends = make([]groups.Endpoint, 0, c.first[cfg.N])
	coord := groups.NewCoordinator(sys, cfg.Groups, cfg.PreCrashed, instance, c.deliver)
	c.Coord = coord
	for p := 0; p < cfg.N; p++ {
		pid := proto.PID(p)
		r := coord.NewRouter(sys.Proc(pid))
		sys.SetHandler(pid, r)
		home := []int{cfg.Groups.Home(pid)}
		c.Bcast[p] = func(body any) proto.MsgID { return r.Multicast(home, body) }
	}
}

// groupSpec is the endpoint recipe of the group instance ic describes,
// for building it and for resetting it alike.
func (c *Core) groupSpec(ic groups.InstanceConfig) endpointSpec {
	deliver := ic.Deliver
	spec := endpointSpec{
		deliver:  func(_ proto.MsgID, body any) { deliver(body) },
		members:  ic.InitialLocal,
		renumber: c.cfg.Renumber,
	}
	if onView := c.cfg.OnView; onView != nil {
		members, global := ic.Members, ic.Members[ic.Local]
		spec.onView = func(v gm.View) {
			// Report view members in global pids; the view id sequence is
			// the group's own.
			mapped := gm.View{ID: v.ID, Members: make([]proto.PID, len(v.Members))}
			for i, lq := range v.Members {
				mapped.Members[i] = members[lq]
			}
			onView(global, mapped, c.Eng.Now())
		}
	}
	return spec
}

// deliver is the one A-delivery upcall of every endpoint and of the group
// coordinator: it records the delivery in History and hands it on to
// CoreConfig.Deliver.
func (c *Core) deliver(p proto.PID, id proto.MsgID, body any, at sim.Time) {
	if c.History != nil {
		c.History.Deliver(p, id)
	}
	c.cfg.Deliver(p, id, body, at)
}

// Broadcast issues one A-broadcast of body from sender — the entry point
// of every workload source and every scripted or interactive call. In
// groups mode it is a multicast to the sender's home group plus, with
// probability CrossShard, one uniformly drawn other group; the
// destination groups come back alongside the id (nil outside groups mode;
// scratch, valid until the next call).
func (c *Core) Broadcast(sender int, body any) (proto.MsgID, []int) {
	if c.Coord == nil {
		c.SentBy[sender]++
		id := c.Bcast[sender](body)
		if c.History != nil {
			c.History.Broadcast(id)
		}
		return id, nil
	}
	m := c.cfg.Groups
	home := m.Home(proto.PID(sender))
	dests := c.mixDests[:1]
	dests[0] = home
	if c.crossFrac > 0 && m.NumGroups() > 1 && c.mixRng.Float64() < c.crossFrac {
		other := c.mixRng.Intn(m.NumGroups() - 1)
		if other >= home {
			other++
		}
		if other < home {
			dests = append(dests[:0], other, home)
		} else {
			dests = append(dests, other)
		}
	}
	return c.Multicast(sender, dests, body), dests
}

// Multicast issues one genuine atomic multicast of body from sender to the
// destination groups dests (sorted, unique) and returns its global id: the
// groups-mode entry of every multicast, Broadcast's included.
func (c *Core) Multicast(sender int, dests []int, body any) proto.MsgID {
	c.SentBy[sender]++
	id := c.Coord.Router(proto.PID(sender)).Multicast(dests, body)
	if c.History != nil {
		var to []proto.PID
		for _, g := range dests {
			to = append(to, c.cfg.Groups.Members(g)...)
		}
		c.History.Multicast(id, to)
	}
	return id
}

// StartLoad starts the paper's Poisson workload — one source per live
// sender at rate Throughput/N (possibly zero: silent until a load event
// raises it), on the dedicated "load" stream — and builds the Loads
// installer with CoreConfig.Load installed. fire receives each arrival's
// sender and is expected to Broadcast; a sender crashed mid-run keeps its
// source but generates no load, so its arrivals never reach fire. After a
// Reset the sources and the installer of the previous run start again in
// place.
func (c *Core) StartLoad(fire func(sender int)) {
	n := c.cfg.N
	if c.sources == nil {
		c.sources = make([]*workload.Poisson, n)
		c.live = make([]*workload.Poisson, n)
	}
	c.fire = fire
	c.senders = c.senders[:0]
	for _, p := range c.Members {
		c.senders = append(c.senders, int(p))
	}
	rng := sim.NewRand(c.cfg.Seed).Fork("load")
	workload.SpreadInto(c.sources, c.Eng, rng, c.cfg.Throughput, n, c.senders, c.arrive)
	clear(c.live)
	for _, s := range c.senders {
		c.live[s] = c.sources[s]
	}
	if c.loads == nil {
		c.loads = NewLoads(c.Eng, c.cfg.Throughput, n, c.live)
	} else {
		c.loads.reset(c.cfg.Throughput, n, c.live)
	}
	c.Loads = c.loads
	if c.Coord != nil {
		c.Loads.OnShardMix = func(fraction float64) { c.crossFrac = fraction }
	}
	c.Loads.Install(orEmpty(c.cfg.Load).Events)
}

// arrive is every workload source's callback: an arrival at a crashed
// sender generates no load.
func (c *Core) arrive(sender int) {
	if !c.Sys.Proc(proto.PID(sender)).Crashed() {
		c.fire(sender)
	}
}

// Apply checks one fault event against the running system and schedules
// it at its instant: the interactive counterpart of CoreConfig.Plan, held
// to the same rules.
func (c *Core) Apply(ev PlanEvent) error {
	if err := c.cfg.checkPlan([]PlanEvent{ev}); err != nil {
		return err
	}
	c.Faults.Schedule(ev)
	return nil
}

// ApplyLoad is Apply's load-side sibling; StartLoad must have run.
func (c *Core) ApplyLoad(ev LoadEvent) error {
	if err := c.cfg.checkLoad([]LoadEvent{ev}); err != nil {
		return err
	}
	c.Loads.Schedule(ev)
	return nil
}

// Recover revives a crashed process by its stack's recovery policy (see
// stack.rejoins): a rejoining stack gets a fresh incarnation, the others
// resume in place — on each of the process's endpoints in group order,
// the heartbeat detector, when configured, starts beating again and
// Resume arms the catch-up probe. Recovering a live process is a no-op.
func (c *Core) Recover(p proto.PID) {
	if !c.Sys.Proc(p).Crashed() {
		return
	}
	if c.stack.rejoins {
		if c.Coord != nil {
			// A rejoin would need a per-group rejoin protocol, which the
			// group layer does not model — checkPlan rejects the
			// combination, so reaching here is a bug.
			panic("experiment: crash-recovery of a rejoining stack in groups mode")
		}
		if c.History != nil {
			c.History.Restart(p)
		}
		c.Sys.Recover(p, func(rt proto.Runtime) proto.Handler {
			return c.rejoin(int(p), rt)
		})
		return
	}
	c.Sys.Recover(p, nil)
	for _, ep := range c.endpoints(p) {
		if ep.Restart != nil {
			ep.Restart()
		}
		if ep.Resume != nil {
			ep.Resume()
		}
	}
}

// Healed arms the catch-up probe of every live process after a partition
// heal: a healed minority segment has missed the majority's decisions and
// must ask for the suffix — decision forwarding alone cannot unwedge it
// once the gap is real. Stacks without a Resume hook (the GM algorithms
// run their own staleness probe off the heal's trust edges) are left
// alone. Probes on processes that were not behind disarm silently.
func (c *Core) Healed() {
	for p := proto.PID(0); int(p) < c.cfg.N; p++ {
		if c.Sys.Proc(p).Crashed() {
			continue
		}
		for _, ep := range c.endpoints(p) {
			if ep.Resume != nil {
				ep.Resume()
			}
		}
	}
}

// endpoints returns process p's endpoints: its one incarnation on the
// ungrouped path, its group instances in group order in groups mode.
func (c *Core) endpoints(p proto.PID) []groups.Endpoint {
	if c.first == nil {
		return c.ends[p : p+1]
	}
	return c.ends[c.first[p]:c.first[p+1]]
}

// withoutPID returns members minus p, freshly allocated.
func withoutPID(members []proto.PID, p proto.PID) []proto.PID {
	out := make([]proto.PID, 0, len(members))
	for _, m := range members {
		if m != p {
			out = append(out, m)
		}
	}
	return out
}
