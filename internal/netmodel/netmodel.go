// Package netmodel implements the contention-aware message transmission
// model of the paper's Section 6.1 (after Urbán, Défago, Schiper, "Contention-
// aware metrics for distributed algorithms", IC3N 2000), generalised to
// route over an explicit connectivity graph (internal/topo).
//
// Two kinds of resources exist, each serving messages in FIFO order:
//
//   - one CPU resource per process, representing the network controller and
//     networking stack; every message occupies the sender's CPU for λ time
//     units when sent and the receiver's CPU for λ time units when received;
//   - one network resource per topology wire, representing an Ethernet-like
//     transmission medium; every message hop occupies its wire for one slot
//     (the wire's own, or the model default — 1 ms in all the paper's
//     experiments).
//
// On the default FullMesh topology there is a single wire joining every
// process pair and the model reduces exactly — bit-identically — to the
// paper's: a message from pᵢ to pⱼ uses CPUᵢ (λ), then the wire (1), then
// CPUⱼ (λ), queueing before each stage if the resource is busy, and a
// multicast occupies the sender CPU and the wire once and then every
// destination CPU in parallel (the Ethernet broadcast assumption the
// paper's message counts rely on). Delivery to the sender itself is local
// and free.
//
// On a segmented topology, messages travel hop by hop along precompiled
// shortest paths: each relay pays receive-CPU λ, then send-CPU λ and a
// wire slot per onward transmission. A multicast follows the origin's
// spanning tree — one wire occupancy per tree segment reaches every
// destination discovered over that segment, and relays forward before
// handing their own copy up. Wires may add propagation delay (the hop
// arrives after the slot while the wire is already free) and per-copy
// loss; a lost relay copy loses the whole subtree behind it.
//
// Crashes follow the paper's software-crash semantics: when pᵢ crashes at
// time t, no message passes between pᵢ and CPUᵢ after t — the process
// neither sends nor receives, and on a multi-hop topology it stops
// relaying — but messages already handed to CPUᵢ and its queues are still
// transmitted.
//
// Beyond crashes the model supports dynamic environment faults, applied
// at each wire→destination handoff so the fault-free hot path pays a
// single branch: partitions (SetPartition/ClearPartition — copies whose
// hop crosses groups are discarded before the destination CPU) and
// per-link faults (SetLink — probabilistic loss on an independent random
// stream, and extra delay entering the destination CPU).
//
// The pipeline stages run on the engine's closure-free scheduling form
// (sim.ScheduleMsg): each in-flight hop is a pooled event record carrying
// (stage, origin·node, route, payload) and dispatching back into
// HandleMsg, so simulating a message allocates nothing — no closures, no
// per-multicast destination slice (fan-out reads the topology's compiled
// tables), no per-hop event allocation once the engine's free list is
// warm. Pooled payloads are reference-counted across their in-flight
// copies; the Pooled interface documents the Retain/Release contract
// handlers and observers must respect.
package netmodel

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/sim"
	"repro/internal/topo"
)

// Config parameterises the transmission model.
type Config struct {
	// N is the number of processes. It must be at least 1.
	N int
	// Lambda is the CPU occupancy per message send and per message
	// receive (the λ parameter of the paper). λ = 1 ms reproduces every
	// figure of the DSN paper; other values model other environments.
	Lambda time.Duration
	// Slot is the default wire occupancy per message: the paper's time
	// unit, 1 ms in all experiments. Wires with their own Slot override
	// it.
	Slot time.Duration
	// Topology is the connectivity graph messages route over. Nil means
	// topo.FullMesh(N) — the paper's single shared Ethernet, on which
	// the model is bit-identical to its pre-topology form.
	Topology *topo.Topology
}

// DefaultConfig returns the configuration used throughout the paper's
// evaluation: λ = 1 time unit, 1 time unit = 1 ms, full mesh on one wire.
func DefaultConfig(n int) Config {
	return Config{N: n, Lambda: time.Millisecond, Slot: time.Millisecond}
}

func (c Config) validate() error {
	switch {
	case c.N < 1:
		return fmt.Errorf("netmodel: N = %d, need at least 1", c.N)
	case c.Lambda < 0:
		return fmt.Errorf("netmodel: negative Lambda %v", c.Lambda)
	case c.Slot < 0:
		return fmt.Errorf("netmodel: negative Slot %v", c.Slot)
	case c.Topology != nil && c.Topology.N != c.N:
		return fmt.Errorf("netmodel: topology %q is for %d processes, config has N=%d", c.Topology.Name, c.Topology.N, c.N)
	}
	return nil
}

// DeliverFunc receives a message that completed all three stages. It runs
// at the virtual instant the destination process takes the message off its
// CPU.
type DeliverFunc func(to, from int, payload any)

// TraceKind labels points in a message's lifecycle for observers.
type TraceKind int

// Trace points, in lifecycle order.
const (
	TraceSend    TraceKind = iota + 1 // process hands message to its CPU
	TraceWire                         // message occupies a wire (From is the transmitting hop)
	TraceDeliver                      // destination process receives it
	TraceDrop                         // message discarded: destination crashed, partitioned away, or link loss
)

// String returns the lowercase name of the trace kind.
func (k TraceKind) String() string {
	switch k {
	case TraceSend:
		return "send"
	case TraceWire:
		return "wire"
	case TraceDeliver:
		return "deliver"
	case TraceDrop:
		return "drop"
	default:
		return fmt.Sprintf("TraceKind(%d)", int(k))
	}
}

// TraceEvent describes one lifecycle point of one message copy.
type TraceEvent struct {
	Kind    TraceKind
	At      sim.Time
	From    int
	To      int // -1 for wire events of multi-destination multicast hops
	Payload any
}

// Pooled is implemented by payloads drawn from a free list. The network
// reference-counts the in-flight copies of a pooled payload — one
// reference per copy that will reach a terminal lifecycle point
// (delivery, crash drop, partition/loss discard) — and releases each
// copy's reference at that point, after the delivery handler and any
// trace observer have returned. A payload whose count reaches zero may
// be reused by its owner, so handlers and observers must not retain it
// past their return. Non-pooled payloads are unaffected. A wire message
// type implements it by embedding Box (pool.go).
type Pooled interface {
	// Retain adds n references.
	Retain(n int)
	// Release drops one reference, recycling the payload at zero.
	Release()
}

func retain(payload any, n int) {
	if p, ok := payload.(Pooled); ok {
		p.Retain(n)
	}
}

// release drops n terminal references to payload.
func release(payload any, n int) {
	if p, ok := payload.(Pooled); ok {
		for i := 0; i < n; i++ {
			p.Release()
		}
	}
}

// Discard recycles a pooled payload that was never handed to the
// network — the escape hatch for senders that construct a payload and
// then hit an early return (a crashed-process guard upstream of Send or
// Multicast). Discarding a non-pooled payload is a no-op.
func Discard(payload any) {
	if p, ok := payload.(Pooled); ok {
		p.Retain(1)
		p.Release()
	}
}

// PayloadName renders a trace payload compactly, preferring the
// payload's own String method (protocol wrappers name their inner
// message). It is the canonical payload rendering of every trace
// consumer — the interactive cluster facade and the experiment layer's
// trace export use it, so their formats agree.
func PayloadName(p any) string {
	if s, ok := p.(fmt.Stringer); ok {
		return s.String()
	}
	return fmt.Sprintf("%T", p)
}

// Counters aggregates network activity, used by load diagnostics and by
// the FD-vs-GM message-pattern equivalence tests.
type Counters struct {
	Unicasts   uint64 // point-to-point sends handed to a CPU
	Multicasts uint64 // multicast sends handed to a CPU
	WireSlots  uint64 // hops that occupied a network resource (one per relay hop)
	Deliveries uint64 // completed deliveries (per destination)
	Drops      uint64 // deliveries discarded because the target crashed
	LocalSends uint64 // self-deliveries (no resource usage)
	Lost       uint64 // copies discarded by a partition, a lossy link or wire, or a dead relay's subtree
}

// Pipeline stage opcodes for the closure-free scheduler. The a record
// field packs origin·N+node — the multicast origin (or unicast sender)
// and the hop currently holding the copy. The b field is the route: the
// final destination for unicasts, or -(group+1) naming a transmit group
// of the origin's tree at the holding node; opRecvCPUDone and
// opFaultArrive use b = -1 for multicast receive legs.
const (
	opSenderCPUDone = iota // sender CPU released the hop: reserve its wire
	opWireDone             // wire slot (plus propagation) over: arrive at the far end(s)
	opRecvCPUDone          // destination CPU done: deliver, forward, or drop
	opLocalDeliver         // zero-cost self-delivery
	opFaultArrive          // link extra delay elapsed: enter the destination CPU
)

// Network simulates the transmission model on top of a sim.Engine.
type Network struct {
	eng     *sim.Engine
	cfg     Config
	deliver DeliverFunc
	trace   func(TraceEvent)

	cpuBusy  []sim.Time // per-process CPU busy-until
	wireBusy []sim.Time // per-wire busy-until
	crashed  []bool

	// Routing tables and resolved per-wire parameters of the topology the
	// network was last built or reset on.
	rt        *topo.Routing
	sets      []*topo.SetRouting // pruned tables per registered destination set
	wireSlot  []time.Duration
	wireDelay []time.Duration
	wireLoss  []float64
	lossy     bool // any wire with non-zero Loss

	// Dynamic fault state, consulted at the wire→destination handoff only
	// while faults is set, so the fault-free hot path pays one branch.
	faults      bool
	group       []int             // partition labels; nil when no partition
	linkLoss    [][]float64       // per directed link loss probability
	linkDelay   [][]time.Duration // per directed link extra delay
	activeLinks int               // number of links with a non-zero fault
	faultRand   sim.Rand          // loss stream, once faultSeeded; lazily defaulted
	faultSeeded bool

	ctrs Counters
}

// New creates a network. deliver must not be nil; it is invoked for every
// completed message. New panics on an invalid configuration or topology —
// the configuration is code, not input.
func New(eng *sim.Engine, cfg Config, deliver DeliverFunc) *Network {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	if deliver == nil {
		panic("netmodel: nil deliver callback")
	}
	nw := &Network{
		eng:     eng,
		cfg:     Config{N: cfg.N},
		deliver: deliver,
		cpuBusy: make([]sim.Time, cfg.N),
		crashed: make([]bool, cfg.N),
	}
	nw.Reset(cfg)
	return nw
}

// Reset returns the network to the state New(eng, cfg, deliver) leaves it
// in, on the network's own engine and deliver callback, keeping its
// storage. cfg must name the network's N; the topology (nil for the full
// mesh), Lambda and Slot may differ. The routing tables are the
// topology's own, compiled once per Topology, and the per-wire arrays are
// resized in place. Everything a run changes is undone: busy horizons,
// crashes, the partition, link faults, registered destination sets, the
// trace hook, the counters and the loss stream. The sets' tables are kept
// as storage: the next run's RegisterSet calls rebuild them in place.
func (nw *Network) Reset(cfg Config) {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	if cfg.N != nw.cfg.N {
		panic(fmt.Sprintf("netmodel: Reset to %d processes, network has %d", cfg.N, nw.cfg.N))
	}
	if cfg.Topology == nil {
		cfg.Topology = topo.SharedFullMesh(cfg.N)
	}
	wires := cfg.Topology.Wires
	clear(nw.cpuBusy)
	clear(nw.crashed)
	for p := range nw.linkLoss {
		clear(nw.linkLoss[p])
		clear(nw.linkDelay[p])
	}
	*nw = Network{
		eng:       nw.eng,
		cfg:       cfg,
		deliver:   nw.deliver,
		cpuBusy:   nw.cpuBusy,
		wireBusy:  resize(nw.wireBusy, len(wires)),
		crashed:   nw.crashed,
		rt:        cfg.Topology.Routing(),
		sets:      nw.sets[:0],
		wireSlot:  resize(nw.wireSlot, len(wires)),
		wireDelay: resize(nw.wireDelay, len(wires)),
		wireLoss:  resize(nw.wireLoss, len(wires)),
		linkLoss:  nw.linkLoss,
		linkDelay: nw.linkDelay,
	}
	clear(nw.wireBusy)
	for i, w := range wires {
		nw.wireSlot[i] = w.Slot
		if w.Slot == 0 {
			nw.wireSlot[i] = cfg.Slot
		}
		nw.wireDelay[i] = w.Delay
		nw.wireLoss[i] = w.Loss
		nw.lossy = nw.lossy || w.Loss > 0
	}
	if nw.lossy {
		nw.SetFaultRand(sim.NewRand(1))
	}
}

// resize returns s with length n, reusing its array when it has the
// capacity.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// SetTrace installs an observer invoked at each message lifecycle point.
// Pass nil to remove it. Tracing is meant for tests, examples and the
// trace tool; it has no effect on timing.
func (nw *Network) SetTrace(fn func(TraceEvent)) { nw.trace = fn }

// Counters returns a snapshot of the activity counters.
func (nw *Network) Counters() Counters { return nw.ctrs }

// Crash marks p as crashed as of the current instant. Messages already on
// p's CPU still go out; nothing is delivered to p from now on. Crashing a
// crashed process is a no-op.
func (nw *Network) Crash(p int) { nw.crashed[p] = true }

// Recover reverses Crash: messages flow to and from p again as of the
// current instant. Recovering a live process is a no-op.
func (nw *Network) Recover(p int) { nw.crashed[p] = false }

// SetFaultRand installs a copy of r as the random stream that decides
// lossy-link and lossy-wire drops. Installing it up front keeps loss
// decisions on an independent stream, so a fault-free simulation is
// bit-identical whether or not the stream was installed. If a lossy link
// is configured without one, a fixed-seed default is used (a topology
// with lossy wires installs that default at construction).
func (nw *Network) SetFaultRand(r *sim.Rand) { nw.faultRand, nw.faultSeeded = *r, true }

// SetPartition splits the processes into isolated groups as of the current
// instant: a message copy whose current hop crosses two groups is
// discarded at the wire→destination handoff (the frame is on the medium
// but the partitioned NIC never receives it), costing the destination CPU
// nothing. On a multi-hop topology the check is per hop, so traffic whose
// whole route stays inside one group is unaffected even when the endpoints
// could also be reached across the cut. A process listed in no group is
// isolated on its own. A partition replaces any previous one;
// ClearPartition heals it. Self-delivery is never partitioned.
// SetPartition panics on out-of-range or duplicated process indices — the
// configuration is code, not input.
func (nw *Network) SetPartition(groups [][]int) {
	label := make([]int, nw.cfg.N)
	for p := range label {
		label[p] = -(p + 1) // unlisted processes are isolated singletons
	}
	for gi, g := range groups {
		for _, p := range g {
			if p < 0 || p >= nw.cfg.N {
				panic(fmt.Sprintf("netmodel: partition group contains process %d, want 0..%d", p, nw.cfg.N-1))
			}
			if label[p] >= 0 {
				panic(fmt.Sprintf("netmodel: process %d appears in two partition groups", p))
			}
			label[p] = gi
		}
	}
	nw.group = label
	nw.faults = true
}

// ClearPartition heals the current partition, if any.
func (nw *Network) ClearPartition() {
	nw.group = nil
	nw.faults = nw.activeLinks > 0
}

// SetLink installs a fault on the directed link from → to: each message
// copy hopping from → to is independently lost with probability loss, and
// surviving copies enter the destination CPU extraDelay late. On a
// multi-hop topology the link names one hop, not an end-to-end path.
// Setting both to zero clears the link's fault. A new SetLink replaces the
// link's previous fault. It panics on invalid arguments.
func (nw *Network) SetLink(from, to int, loss float64, extraDelay time.Duration) {
	switch {
	case from < 0 || from >= nw.cfg.N || to < 0 || to >= nw.cfg.N:
		panic(fmt.Sprintf("netmodel: link %d->%d out of range for N=%d", from, to, nw.cfg.N))
	case from == to:
		panic("netmodel: self links carry local deliveries and cannot fault")
	case loss < 0 || loss > 1:
		panic(fmt.Sprintf("netmodel: link loss probability %v outside [0,1]", loss))
	case extraDelay < 0:
		panic(fmt.Sprintf("netmodel: negative link delay %v", extraDelay))
	}
	if nw.linkLoss == nil {
		nw.linkLoss = make([][]float64, nw.cfg.N)
		nw.linkDelay = make([][]time.Duration, nw.cfg.N)
		for p := 0; p < nw.cfg.N; p++ {
			nw.linkLoss[p] = make([]float64, nw.cfg.N)
			nw.linkDelay[p] = make([]time.Duration, nw.cfg.N)
		}
	}
	was := nw.linkLoss[from][to] != 0 || nw.linkDelay[from][to] != 0
	now := loss != 0 || extraDelay != 0
	nw.linkLoss[from][to] = loss
	nw.linkDelay[from][to] = extraDelay
	switch {
	case now && !was:
		nw.activeLinks++
	case was && !now:
		nw.activeLinks--
	}
	if loss > 0 && !nw.faultSeeded {
		nw.SetFaultRand(sim.NewRand(1))
	}
	nw.faults = nw.group != nil || nw.activeLinks > 0
}

// reachable reports whether a hop from `from` to `to` passes the current
// partition.
func (nw *Network) reachable(from, to int) bool {
	return nw.group == nil || nw.group[from] == nw.group[to]
}

// emit reports one lifecycle point to the trace observer.
func (nw *Network) emit(kind TraceKind, at sim.Time, from, to int, payload any) {
	if nw.trace != nil {
		nw.trace(TraceEvent{Kind: kind, At: at, From: from, To: to, Payload: payload})
	}
}

// pack folds (set, origin, node) into one event record field; set -1 is
// the full-topology multicast (and every unicast), whose packed value is
// origin·N+node exactly as before destination sets existed.
func (nw *Network) pack(set, origin, node int) int {
	return ((set+1)*nw.cfg.N+origin)*nw.cfg.N + node
}

// treeRow returns the transmit groups node performs for origin's
// multicast: the full spanning tree, or the set's pruned one.
func (nw *Network) treeRow(set, origin, node int) []topo.TxGroup {
	if set >= 0 {
		return nw.sets[set].Tree[origin][node]
	}
	return nw.rt.Tree[origin][node]
}

// subCopies counts the in-flight references behind dst in origin's tree:
// all nodes for a full multicast, set members only for a set multicast.
func (nw *Network) subCopies(set, origin, dst int) int {
	if set >= 0 {
		return int(nw.sets[set].Sub[origin][dst])
	}
	return int(nw.rt.Sub[origin][dst])
}

// Send transmits payload from process `from` to process `to` through the
// CPU→wire→CPU pipeline of every hop on the route. Sending to self
// delivers locally at the current instant with no resource usage. Sends
// from a crashed process are ignored; a send with no route to the
// destination is counted and dropped at the sender's NIC.
func (nw *Network) Send(from, to int, payload any) {
	if nw.crashed[from] {
		Discard(payload)
		return
	}
	retain(payload, 1)
	if from == to {
		nw.localDeliver(from, payload)
		return
	}
	nw.ctrs.Unicasts++
	nw.emit(TraceSend, nw.eng.Now(), from, to, payload)
	if nw.rt.Next[from][to] < 0 {
		nw.lose(-1, from, from, to, to, payload)
		return
	}
	nw.throughCPU(-1, from, from, to, payload)
}

// Multicast transmits payload from process `from` to every process
// reachable from it, including `from` itself. The copy fans out along
// `from`'s spanning tree: each tree segment is one wire occupancy
// reaching all destinations discovered over it, and every destination CPU
// on a segment is occupied in parallel (on the default full mesh: sender
// CPU and the single wire once, then all remote CPUs — the paper's
// model). The local copy is delivered immediately at no cost. Multicasts
// from a crashed process are ignored.
func (nw *Network) Multicast(from int, payload any) {
	if nw.crashed[from] {
		Discard(payload)
		return
	}
	// One reference for the local copy plus one per reachable remote
	// destination: each copy reaches exactly one terminal point.
	retain(payload, 1+int(nw.rt.Reach[from]))
	nw.ctrs.Multicasts++
	nw.emit(TraceSend, nw.eng.Now(), from, -1, payload)
	nw.localDeliver(from, payload)
	nw.forward(-1, from, from, payload)
}

// SetID names a destination set registered with RegisterSet.
type SetID int32

// RegisterSet precompiles pruned multicast routing for a destination
// set — the address of MulticastSet. Registration is setup-time work:
// each set costs O(N²) table space, like the full routing itself. After a
// Reset, the set takes the tables the last run registered under its id,
// rebuilt in place.
func (nw *Network) RegisterSet(members []int) SetID {
	id := len(nw.sets)
	nw.sets = slices.Grow(nw.sets, 1)[:id+1]
	if nw.sets[id] == nil {
		nw.sets[id] = new(topo.SetRouting)
	}
	nw.rt.PruneSetInto(nw.sets[id], members)
	return SetID(id)
}

// MulticastSet transmits payload from process `from` to every member of
// a registered destination set, along the pruned spanning tree of the
// origin: non-member relays forward copies without receiving them as
// destinations, and only members deliver. The sender delivers locally
// (free) only if it is itself a member. Resource usage per hop is the
// same as Multicast's; only the fan-out is narrower. Sends from a
// crashed process are ignored.
func (nw *Network) MulticastSet(from int, set SetID, payload any) {
	if nw.crashed[from] {
		Discard(payload)
		return
	}
	sr := nw.sets[set]
	local := 0
	if sr.Member[from] {
		local = 1
	}
	if local+int(sr.Reach[from]) == 0 {
		Discard(payload)
		return
	}
	retain(payload, local+int(sr.Reach[from]))
	nw.ctrs.Multicasts++
	nw.emit(TraceSend, nw.eng.Now(), from, -1, payload)
	if local == 1 {
		nw.localDeliver(from, payload)
	}
	nw.forward(int(set), from, from, payload)
}

// forward starts the transmit stage for every tree segment of origin's
// multicast at the holding node — one send-CPU occupancy per segment.
func (nw *Network) forward(set, origin, node int, payload any) {
	for gi := range nw.treeRow(set, origin, node) {
		nw.throughCPU(set, origin, node, -(gi + 1), payload)
	}
}

// HandleMsg advances one in-flight hop to its next pipeline stage. It
// implements sim.MsgHandler; a packs (set+1)·N²+origin·N+node, b is the
// route code.
func (nw *Network) HandleMsg(op uint8, a, b int, payload any) {
	node := a % nw.cfg.N
	rest := a / nw.cfg.N
	origin, set := rest%nw.cfg.N, rest/nw.cfg.N-1
	switch op {
	case opSenderCPUDone:
		nw.throughWire(set, origin, node, b, payload)
	case opWireDone:
		if b >= 0 {
			next := int(nw.rt.Next[node][b])
			nw.arrive(set, origin, node, next, int(nw.rt.HopWire[node][b]), b, payload)
		} else {
			g := &nw.treeRow(set, origin, node)[-b-1]
			for _, dst := range g.Dsts {
				nw.arrive(set, origin, node, int(dst), int(g.Wire), -1, payload)
			}
		}
	case opRecvCPUDone:
		nw.received(set, origin, node, b, payload)
	case opLocalDeliver:
		nw.deliverLocal(node, payload)
	case opFaultArrive:
		nw.intoCPU(set, origin, node, b, payload)
	default:
		panic(fmt.Sprintf("netmodel: unknown pipeline op %d", op))
	}
}

// localDeliver schedules a zero-cost self-delivery at the current instant.
// It still goes through the event queue so that the delivery handler never
// reenters the caller.
func (nw *Network) localDeliver(p int, payload any) {
	nw.ctrs.LocalSends++
	nw.eng.AfterMsg(0, nw, opLocalDeliver, nw.pack(-1, p, p), p, payload)
}

// deliverLocal completes a self-delivery, honouring a crash that happened
// between the send and this instant.
func (nw *Network) deliverLocal(p int, payload any) {
	if nw.crashed[p] {
		nw.ctrs.Drops++
		nw.emit(TraceDrop, nw.eng.Now(), p, p, payload)
		release(payload, 1)
		return
	}
	nw.ctrs.Deliveries++
	nw.emit(TraceDeliver, nw.eng.Now(), p, p, payload)
	nw.deliver(p, p, payload)
	release(payload, 1)
}

// throughCPU occupies node's CPU for λ and then hands the hop to the wire
// stage. The CPU is FIFO: occupancy accumulates on a busy-until horizon.
func (nw *Network) throughCPU(set, origin, node, b int, payload any) {
	start := nw.eng.Now()
	if nw.cpuBusy[node] > start {
		start = nw.cpuBusy[node]
	}
	done := start.Add(nw.cfg.Lambda)
	nw.cpuBusy[node] = done
	nw.eng.ScheduleMsg(done, nw, opSenderCPUDone, nw.pack(set, origin, node), b, payload)
}

// throughWire occupies the hop's wire for its slot, then fans the hop out
// to the far end(s). The wire is reserved at the moment the hop leaves
// the sending CPU, which preserves the FIFO arrival order at the medium;
// the wire's propagation delay postpones arrival without extending the
// occupancy.
func (nw *Network) throughWire(set, origin, node, b int, payload any) {
	var wire int32
	traceTo := b
	if b >= 0 {
		wire = nw.rt.HopWire[node][b]
	} else {
		g := &nw.treeRow(set, origin, node)[-b-1]
		wire = g.Wire
		if len(g.Dsts) == 1 {
			// A segment with a single destination traces the concrete
			// destination, as every one-destination wire hop does.
			traceTo = int(g.Dsts[0])
		} else {
			traceTo = -1
		}
	}
	start := nw.eng.Now()
	if nw.wireBusy[wire] > start {
		start = nw.wireBusy[wire]
	}
	done := start.Add(nw.wireSlot[wire])
	nw.wireBusy[wire] = done
	nw.ctrs.WireSlots++
	nw.emit(TraceWire, start, node, traceTo, payload)
	nw.eng.ScheduleMsg(done.Add(nw.wireDelay[wire]), nw, opWireDone, nw.pack(set, origin, node), b, payload)
}

// arrive is the wire→destination handoff of one hop, where partitions,
// link faults and wire loss act: a copy whose hop crosses a partition or
// is lost on a lossy link or wire is discarded before it occupies the
// destination CPU, and a link's extra delay postpones the CPU entry.
// Fault-free perfect-wire networks skip straight to intoCPU. Destinations
// of a segment are visited in fixed ascending order, so the loss stream's
// draws are deterministic.
func (nw *Network) arrive(set, origin, node, dst, wire, b int, payload any) {
	if nw.faults {
		if !nw.reachable(node, dst) {
			nw.lose(set, origin, node, dst, b, payload)
			return
		}
		if nw.linkLoss != nil {
			if loss := nw.linkLoss[node][dst]; loss > 0 && nw.faultRand.Float64() < loss {
				nw.lose(set, origin, node, dst, b, payload)
				return
			}
		}
	}
	if wl := nw.wireLoss[wire]; wl > 0 && nw.faultRand.Float64() < wl {
		nw.lose(set, origin, node, dst, b, payload)
		return
	}
	if nw.faults && nw.linkDelay != nil {
		if d := nw.linkDelay[node][dst]; d > 0 {
			nw.eng.AfterMsg(d, nw, opFaultArrive, nw.pack(set, origin, dst), b, payload)
			return
		}
	}
	nw.intoCPU(set, origin, dst, b, payload)
}

// lose discards a copy to a fault (partition, link or wire loss, or a
// route that does not exist). For a multicast hop (b < 0) the whole
// subtree behind dst dies with it: every copy it would have fanned into
// is released and counted lost, under one drop trace.
func (nw *Network) lose(set, origin, node, dst, b int, payload any) {
	copies := 1
	if b < 0 {
		copies = nw.subCopies(set, origin, dst)
	}
	nw.emit(TraceDrop, nw.eng.Now(), node, dst, payload)
	nw.ctrs.Lost += uint64(copies)
	release(payload, copies)
}

// intoCPU occupies the destination CPU for λ and hands the hop to the
// receive stage.
func (nw *Network) intoCPU(set, origin, dst, b int, payload any) {
	start := nw.eng.Now()
	if nw.cpuBusy[dst] > start {
		start = nw.cpuBusy[dst]
	}
	done := start.Add(nw.cfg.Lambda)
	nw.cpuBusy[dst] = done
	nw.eng.ScheduleMsg(done, nw, opRecvCPUDone, nw.pack(set, origin, dst), b, payload)
}

// received completes a hop's receive stage at node: final deliveries go
// up to the process, relay hops forward — unless the node crashed while
// the hop was in flight, which on a multicast kills the whole subtree.
func (nw *Network) received(set, origin, node, b int, payload any) {
	if b >= 0 && node != b {
		// Unicast relay: forward toward b, unless this relay is dead.
		if nw.crashed[node] {
			nw.ctrs.Drops++
			nw.emit(TraceDrop, nw.eng.Now(), origin, node, payload)
			release(payload, 1)
			return
		}
		nw.throughCPU(set, origin, node, b, payload)
		return
	}
	if b < 0 && set >= 0 && !nw.sets[set].Member[node] {
		// Non-member relay of a set multicast: the copy passes through
		// without being a destination, so it holds no reference. A dead
		// relay still kills every member behind it.
		if nw.crashed[node] {
			sub := nw.subCopies(set, origin, node)
			nw.emit(TraceDrop, nw.eng.Now(), origin, node, payload)
			nw.ctrs.Lost += uint64(sub)
			release(payload, sub)
			return
		}
		nw.forward(set, origin, node, payload)
		return
	}
	if nw.crashed[node] {
		nw.ctrs.Drops++
		nw.emit(TraceDrop, nw.eng.Now(), origin, node, payload)
		if b < 0 {
			// The dead node's copy is a crash drop; the subtree behind it
			// is lost to the environment.
			if sub := nw.subCopies(set, origin, node); sub > 1 {
				nw.ctrs.Lost += uint64(sub - 1)
				release(payload, sub-1)
			}
		}
		release(payload, 1)
		return
	}
	if b < 0 {
		// Relay before delivering: the NIC forwards the multicast down
		// the tree, then the local copy goes up to the process.
		nw.forward(set, origin, node, payload)
	}
	nw.ctrs.Deliveries++
	nw.emit(TraceDeliver, nw.eng.Now(), origin, node, payload)
	nw.deliver(node, origin, payload)
	release(payload, 1)
}
