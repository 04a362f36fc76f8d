// Package proto is the protocol runtime: it wires algorithm state machines
// to the simulated network (internal/netmodel) and failure detectors
// (internal/fd), playing the role Neko's process/layer framework played in
// the paper's experiments.
//
// Algorithms are written as event-driven state machines implementing
// Handler. The runtime guarantees deterministic, serialised delivery of
// messages, timers and failure-detector edges on the one single-threaded
// engine, so handler code never observes concurrency. The network model
// owns the fault state — which processes are crashed, which hops a
// partition cuts — and the runtime reads it there: once a process
// crashes, its handler never runs again.
package proto

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/fd"
	"repro/internal/netmodel"
	"repro/internal/sim"
)

// PID identifies a process: 0 .. n-1. The paper's p1 corresponds to PID 0.
type PID int

// PIDGroups converts lists of plain process indices — a topology's site
// groups, a facade caller's []int arguments — to lists of PIDs.
func PIDGroups(groups [][]int) [][]PID {
	out := make([][]PID, len(groups))
	for i, g := range groups {
		out[i] = make([]PID, len(g))
		for k, p := range g {
			out[i][k] = PID(p)
		}
	}
	return out
}

// MsgID uniquely identifies an atomic-broadcast message: the origin
// process plus a per-origin sequence number. The deterministic delivery
// order the paper prescribes ("according to the order of their IDs") is
// the Less order below.
type MsgID struct {
	Origin PID
	Seq    uint64
}

// Less orders message IDs first by origin, then by sequence number.
func (a MsgID) Less(b MsgID) bool {
	if a.Origin != b.Origin {
		return a.Origin < b.Origin
	}
	return a.Seq < b.Seq
}

// Compare is Less as a three-way comparison: -1, 0 or +1 as a sorts
// before, equal to or after b.
func (a MsgID) Compare(b MsgID) int {
	if c := cmp.Compare(a.Origin, b.Origin); c != 0 {
		return c
	}
	return cmp.Compare(a.Seq, b.Seq)
}

// String formats the ID as "origin:seq".
func (a MsgID) String() string { return fmt.Sprintf("%d:%d", a.Origin, a.Seq) }

// Runtime is the environment an algorithm layer runs against. It is
// implemented by *Proc in simulations; unit tests may supply lightweight
// fakes.
type Runtime interface {
	// ID returns the process this runtime belongs to.
	ID() PID
	// N returns the total number of processes.
	N() int
	// Now returns the current virtual time.
	Now() sim.Time
	// Rand returns the process-local random stream.
	Rand() *sim.Rand
	// Send transmits a payload to one process through the network model.
	Send(to PID, payload any)
	// Multicast transmits a payload to all processes including the
	// sender (whose copy is delivered locally, at no cost).
	Multicast(payload any)
	// NewAlarm returns a timer bound to fn: the only timer a protocol
	// layer has. Its owner keeps it and re-arms it, and arming it
	// allocates nothing. Its callback does not run after the process
	// crashes.
	NewAlarm(fn func()) *Alarm
	// Suspects reports whether the local failure detector currently
	// suspects p.
	Suspects(p PID) bool
}

// Handler is the root protocol state machine of one process.
type Handler interface {
	// Init runs once when the system starts, before any event.
	Init()
	// OnMessage receives a payload sent by process from (possibly the
	// process itself, for multicasts).
	OnMessage(from PID, payload any)
	// OnSuspect fires when the local failure detector starts suspecting p.
	OnSuspect(p PID)
	// OnTrust fires when the local failure detector stops suspecting p.
	OnTrust(p PID)
}

// System assembles n processes over a shared network model and failure-
// detector simulation.
type System struct {
	Eng *sim.Engine
	Net *netmodel.Network
	FDs *fd.Sim

	procs   []*Proc
	started bool
}

// NewSystem builds a system of n processes. rng is the root randomness;
// independent streams are forked for the failure detectors and for each
// process.
func NewSystem(eng *sim.Engine, netCfg netmodel.Config, qos fd.QoS, rng *sim.Rand) *System {
	n := netCfg.N
	s := &System{Eng: eng}
	s.Net = netmodel.New(eng, netCfg, s.dispatch)
	s.FDs = fd.NewSim(eng, n, qos, rng.Fork("fd"))
	s.procs = make([]*Proc, n)
	rngs := make([]sim.Rand, n)
	for p := range s.procs {
		s.procs[p] = &Proc{sys: s, id: PID(p), rng: &rngs[p]}
		s.FDs.Detector(p).SetListener(fdListener{s.procs[p]})
	}
	s.reset(rng)
	return s
}

// Reset returns the system to the state NewSystem(s.Eng, netCfg, qos,
// rng) leaves it in, keeping its processes, network and detectors —
// storage, streams and listeners — instead of building them again. The
// handlers stay installed and SetHandler may replace them before Start
// runs again. netCfg must name the system's N (the topology and Lambda
// may differ), and the engine must have been reset first
// (sim.Engine.Reset): the previous run's timers must not fire into this
// one.
func (s *System) Reset(netCfg netmodel.Config, qos fd.QoS, rng *sim.Rand) {
	s.Net.Reset(netCfg)
	s.FDs.Reset(qos, rng.Fork("fd"))
	s.reset(rng)
}

// reset is what NewSystem and Reset share after the detectors forked their
// stream: the process streams, in process order, then the network's loss
// stream.
func (s *System) reset(rng *sim.Rand) {
	*s = System{Eng: s.Eng, Net: s.Net, FDs: s.FDs, procs: s.procs}
	for p, proc := range s.procs {
		*proc = Proc{sys: s, id: PID(p), rng: proc.rng, handler: proc.handler}
		*proc.rng = *rng.ForkN(p)
	}
	// Forked last so every stream above is unchanged by its existence.
	s.Net.SetFaultRand(rng.Fork("netfault"))
}

// N returns the number of processes.
func (s *System) N() int { return len(s.procs) }

// Proc returns the runtime of process p.
func (s *System) Proc(p PID) *Proc { return s.procs[p] }

// SetHandler installs the root protocol of process p. It must be called
// before Start.
func (s *System) SetHandler(p PID, h Handler) {
	if s.started {
		panic("proto: SetHandler after Start")
	}
	s.procs[p].handler = h
}

// Start initialises every live process's handler. It must be called
// exactly once, after all handlers are set.
func (s *System) Start() {
	if s.started {
		panic("proto: Start called twice")
	}
	s.started = true
	for _, proc := range s.procs {
		if proc.handler == nil {
			panic(fmt.Sprintf("proto: process %d has no handler", proc.id))
		}
		if !proc.Crashed() {
			proc.handler.Init()
		}
	}
}

// Crash kills process p at the current instant: the network stops
// carrying messages to/from it (in-flight sends still complete), failure
// detectors begin detection, and the handler never runs again.
func (s *System) Crash(p PID) {
	if s.Net.Crashed(int(p)) {
		return
	}
	s.Net.Crash(int(p))
	s.FDs.Crash(int(p))
}

// CrashAt schedules Crash(p) at instant at.
func (s *System) CrashAt(p PID, at sim.Time) {
	s.Eng.Schedule(at, func() { s.Crash(p) })
}

// Recover revives crashed process p at the current instant: the network
// resumes carrying messages to and from it, the failure detectors stop
// suspecting it (trust edges fire at the other processes in ascending
// order, pending detections of the reversed crash are invalidated), and
// the handler runs again. If remake is non-nil, a fresh handler
// incarnation replaces the old one — timers of the previous incarnation
// are invalidated and the new handler's Init runs — which is how a true
// crash-recovery with rejoin is modelled; a nil remake resumes the
// existing handler with its state intact, the long-outage model.
// Recovering a live process is a no-op.
func (s *System) Recover(p PID, remake func(Runtime) Handler) {
	if !s.Net.Crashed(int(p)) {
		return
	}
	s.Net.Recover(int(p))
	s.FDs.Recover(int(p))
	if remake != nil {
		proc := s.procs[p]
		proc.gen++ // the previous incarnation's timers must never fire
		h := remake(proc)
		if h == nil {
			panic(fmt.Sprintf("proto: Recover remake returned nil handler for process %d", p))
		}
		proc.handler = h
		h.Init()
	}
}

// Partition splits the system into isolated groups as of the current
// instant: the network discards copies crossing groups (see
// netmodel.SetPartition, which panics on a bad group before anything
// changes) and every failure detector treats unreachable processes like
// crashed ones — suspicion TD after the split, trust on heal. A process
// listed in no group is isolated on its own. A new partition replaces the
// previous one, severing and restoring only the directed links whose
// reachability changed; Heal removes it.
func (s *System) Partition(groups [][]PID) {
	ints := make([][]int, len(groups))
	for gi, g := range groups {
		ints[gi] = make([]int, len(g))
		for i, p := range g {
			ints[gi][i] = int(p)
		}
	}
	s.repartition(func() { s.Net.SetPartition(ints) })
}

// Heal removes the current partition: reachability is restored and every
// suspicion the split caused is withdrawn (trust edges in ascending
// (monitor, target) order). Healing a whole network is a no-op.
func (s *System) Heal() { s.repartition(s.Net.ClearPartition) }

// repartition applies change to the network's partition, then sets every
// directed detector link from the network's reachability, in ascending
// (monitor, target) order. Sever and Restore are no-ops on a link already
// in that state, so only the links whose reachability changed move.
// Changing the network first moves no edge: Sever only schedules, and
// what a trust edge's handler sends meets the partition at the
// wire-to-CPU handoff, later in virtual time.
func (s *System) repartition(change func()) {
	change()
	for q := range s.procs {
		for p := range s.procs {
			if s.Net.Reachable(q, p) {
				s.FDs.Restore(q, p)
			} else {
				s.FDs.Sever(q, p)
			}
		}
	}
}

// PreCrash establishes the crash-steady initial condition: p has been
// crashed for a long time, every failure detector suspects it permanently,
// and no detection edges fire. Call before Start.
func (s *System) PreCrash(p PID) {
	s.Net.Crash(int(p))
	s.FDs.PreSuspect(int(p))
}

// dispatch routes a completed network delivery to the destination
// handler. The network delivers nothing to a crashed process.
func (s *System) dispatch(to, from int, payload any) {
	if h := s.procs[to].handler; h != nil {
		h.OnMessage(PID(from), payload)
	}
}

// Proc is the per-process runtime. It implements Runtime.
type Proc struct {
	sys     *System
	id      PID
	rng     *sim.Rand
	handler Handler
	// gen is the handler incarnation: timers capture it at creation and
	// only fire while it is current, so a recovery that rebuilds the
	// handler (System.Recover with remake) strands the old incarnation's
	// timers instead of letting them mutate a detached state machine.
	gen uint64
}

var _ Runtime = (*Proc)(nil)

// ID implements Runtime.
func (p *Proc) ID() PID { return p.id }

// N implements Runtime.
func (p *Proc) N() int { return p.sys.N() }

// Now implements Runtime.
func (p *Proc) Now() sim.Time { return p.sys.Eng.Now() }

// Rand implements Runtime.
func (p *Proc) Rand() *sim.Rand { return p.rng }

// Crashed reports whether the process has crashed.
func (p *Proc) Crashed() bool { return p.sys.Net.Crashed(int(p.id)) }

// Send implements Runtime. The network discards what a crashed process
// sends.
func (p *Proc) Send(to PID, payload any) { p.sys.Net.Send(int(p.id), int(to), payload) }

// Multicast implements Runtime: MulticastSet to netmodel.Everyone.
func (p *Proc) Multicast(payload any) { p.MulticastSet(netmodel.Everyone, payload) }

// MulticastSet transmits payload to the members of a destination set
// (netmodel.Everyone, or one registered with netmodel.Network.RegisterSet),
// honouring crash semantics like Send. Group runtimes use it to
// disseminate within one group only.
func (p *Proc) MulticastSet(set netmodel.SetID, payload any) {
	p.sys.Net.MulticastSet(int(p.id), set, payload)
}

// NewAlarm implements Runtime.
func (p *Proc) NewAlarm(fn func()) *Alarm {
	a := &Alarm{proc: p, fn: fn}
	a.fire = a.fired
	return a
}

// Alarm is a process's timer record. An owner that re-arms a timer again
// and again — a heartbeat, a retry loop, a probe — keeps one for its
// lifetime: the engine event is held by value (sim.Engine.Rearm) and the
// callback bound once, so arming it allocates nothing. Whether the timer
// is pending is read from the alarm (Pending), never from a flag kept
// beside it. The callback is dropped if the process has crashed, or its
// handler incarnation has been replaced by a recovery, by the time it
// fires.
type Alarm struct {
	proc *Proc
	fn   func()
	fire func() // the method value a.fired, bound once
	ev   sim.Event
	gen  uint64 // the incarnation the alarm was last armed in
}

// Arm schedules the callback d after the current instant. The alarm must
// not be pending: it is new, fired, or cancelled. Arming a pending alarm
// panics.
func (a *Alarm) Arm(d time.Duration) {
	a.gen = a.proc.gen
	eng := a.proc.sys.Eng
	eng.Rearm(&a.ev, eng.Now().Add(d), a.fire)
}

// Cancel stops a pending alarm from firing. Cancelling an alarm that is
// not pending is a no-op.
func (a *Alarm) Cancel() { a.ev.Cancel() }

// Pending reports whether the alarm is armed and has not fired, been
// cancelled or been dropped by an engine reset. An alarm whose firing was
// dropped because the process was crashed is not pending either, nor is
// an alarm inside its own callback.
func (a *Alarm) Pending() bool { return a.ev.Queued() }

func (a *Alarm) fired() {
	if !a.proc.Crashed() && a.proc.gen == a.gen {
		a.fn()
	}
}

// Suspects implements Runtime.
func (p *Proc) Suspects(q PID) bool {
	return p.sys.FDs.Detector(int(p.id)).Suspects(int(q))
}

// fdListener forwards failure-detector edges to the process handler,
// respecting crash semantics.
type fdListener struct{ proc *Proc }

func (l fdListener) OnSuspect(q int) {
	if !l.proc.Crashed() && l.proc.handler != nil {
		l.proc.handler.OnSuspect(PID(q))
	}
}

func (l fdListener) OnTrust(q int) {
	if !l.proc.Crashed() && l.proc.handler != nil {
		l.proc.handler.OnTrust(PID(q))
	}
}

// SortMsgIDs sorts ids in place in the canonical (origin, seq) order used
// for deterministic intra-batch delivery.
func SortMsgIDs(ids []MsgID) { slices.SortFunc(ids, MsgID.Compare) }
