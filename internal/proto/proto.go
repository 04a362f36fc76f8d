// Package proto is the protocol runtime: it wires algorithm state machines
// to the simulated network (internal/netmodel) and failure detectors
// (internal/fd), playing the role Neko's process/layer framework played in
// the paper's experiments.
//
// Algorithms are written as event-driven state machines implementing
// Handler. The runtime guarantees deterministic, serialised delivery of
// messages, timers and failure-detector edges on the one single-threaded
// engine, so handler code never observes concurrency, and it enforces
// crash semantics: once a process crashes, its handler never runs again.
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
	// After schedules a callback, cancellable through the returned
	// timer. Callbacks do not run after the process crashes.
	After(d time.Duration, fn func()) Timer
	// Suspects reports whether the local failure detector currently
	// suspects p.
	Suspects(p PID) bool
}

// Timer is a cancellable pending callback. *sim.Event implements it in
// simulations; a real-time runtime would wrap *time.Timer.
type Timer interface {
	// Cancel prevents the callback from firing; cancelling a fired or
	// cancelled timer is a no-op.
	Cancel()
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
	// partLabel is the current partition's group label per process, nil
	// when the network is whole; it tracks which directed failure-detector
	// links are severed so Partition/Heal keep net and fd views agreeing.
	partLabel []int
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
	for p := 0; p < n; p++ {
		proc := &Proc{
			sys: s,
			id:  PID(p),
			rng: rng.ForkN(p),
		}
		s.procs[p] = proc
		s.FDs.Detector(p).SetListener(fdListener{proc})
	}
	// Forked last so every stream above is unchanged by its existence.
	s.Net.SetFaultRand(rng.Fork("netfault"))
	return s
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
		if !proc.crashed {
			proc.handler.Init()
		}
	}
}

// Crash kills process p at the current instant: the network stops
// carrying messages to/from it (in-flight sends still complete), failure
// detectors begin detection, and the handler never runs again.
func (s *System) Crash(p PID) {
	proc := s.procs[p]
	if proc.crashed {
		return
	}
	proc.crashed = true
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
	proc := s.procs[p]
	if !proc.crashed {
		return
	}
	s.Net.Recover(int(p))
	s.FDs.Recover(int(p))
	proc.crashed = false
	if remake != nil {
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
// netmodel.SetPartition) and every failure detector treats unreachable
// processes like crashed ones — suspicion TD after the split, trust on
// heal. A process listed in no group is isolated on its own. A new
// partition replaces the previous one, severing and restoring only the
// directed links whose reachability changed; Heal removes it.
func (s *System) Partition(groups [][]PID) {
	n := len(s.procs)
	label := make([]int, n)
	for p := range label {
		label[p] = -(p + 1)
	}
	ints := make([][]int, len(groups))
	for gi, g := range groups {
		ints[gi] = make([]int, len(g))
		for i, p := range g {
			if int(p) < 0 || int(p) >= n {
				panic(fmt.Sprintf("proto: partition group contains process %d, want 0..%d", p, n-1))
			}
			label[p] = gi
			ints[gi][i] = int(p)
		}
	}
	old := s.partLabel
	cross := func(lab []int, q, p int) bool { return lab != nil && lab[q] != lab[p] }
	for q := 0; q < n; q++ {
		for p := 0; p < n; p++ {
			if p == q {
				continue
			}
			was, now := cross(old, q, p), cross(label, q, p)
			switch {
			case now && !was:
				s.FDs.Sever(q, p)
			case was && !now:
				s.FDs.Restore(q, p)
			}
		}
	}
	s.partLabel = label
	s.Net.SetPartition(ints)
}

// Heal removes the current partition: reachability is restored and every
// suspicion the split caused is withdrawn (trust edges in ascending
// (monitor, target) order). Healing a whole network is a no-op.
func (s *System) Heal() {
	if s.partLabel == nil {
		return
	}
	n := len(s.procs)
	for q := 0; q < n; q++ {
		for p := 0; p < n; p++ {
			if p != q && s.partLabel[q] != s.partLabel[p] {
				s.FDs.Restore(q, p)
			}
		}
	}
	s.partLabel = nil
	s.Net.ClearPartition()
}

// PreCrash establishes the crash-steady initial condition: p has been
// crashed for a long time, every failure detector suspects it permanently,
// and no detection edges fire. Call before Start.
func (s *System) PreCrash(p PID) {
	proc := s.procs[p]
	proc.crashed = true
	s.Net.Crash(int(p))
	s.FDs.PreSuspect(int(p))
}

// dispatch routes a completed network delivery to the destination handler.
func (s *System) dispatch(to, from int, payload any) {
	proc := s.procs[to]
	if proc.crashed || proc.handler == nil {
		return
	}
	proc.handler.OnMessage(PID(from), payload)
}

// Proc is the per-process runtime. It implements Runtime.
type Proc struct {
	sys     *System
	id      PID
	rng     *sim.Rand
	handler Handler
	crashed bool
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
func (p *Proc) Crashed() bool { return p.crashed }

// Send implements Runtime.
func (p *Proc) Send(to PID, payload any) {
	if p.crashed {
		netmodel.Discard(payload)
		return
	}
	p.sys.Net.Send(int(p.id), int(to), payload)
}

// Multicast implements Runtime.
func (p *Proc) Multicast(payload any) {
	if p.crashed {
		netmodel.Discard(payload)
		return
	}
	p.sys.Net.Multicast(int(p.id), payload)
}

// MulticastSet transmits payload to the members of a destination set
// registered with the network (netmodel.Network.RegisterSet), honouring
// crash semantics like Multicast. Group runtimes use it to disseminate
// within one group only.
func (p *Proc) MulticastSet(set netmodel.SetID, payload any) {
	if p.crashed {
		netmodel.Discard(payload)
		return
	}
	p.sys.Net.MulticastSet(int(p.id), set, payload)
}

// After implements Runtime. The callback is dropped if the process has
// crashed, or its handler incarnation has been replaced by a recovery, by
// the time it fires.
func (p *Proc) After(d time.Duration, fn func()) Timer {
	gen := p.gen
	return p.sys.Eng.After(d, func() {
		if !p.crashed && p.gen == gen {
			fn()
		}
	})
}

// Suspects implements Runtime.
func (p *Proc) Suspects(q PID) bool {
	return p.sys.FDs.Detector(int(p.id)).Suspects(int(q))
}

// fdListener forwards failure-detector edges to the process handler,
// respecting crash semantics.
type fdListener struct{ proc *Proc }

func (l fdListener) OnSuspect(q int) {
	if !l.proc.crashed && l.proc.handler != nil {
		l.proc.handler.OnSuspect(PID(q))
	}
}

func (l fdListener) OnTrust(q int) {
	if !l.proc.crashed && l.proc.handler != nil {
		l.proc.handler.OnTrust(PID(q))
	}
}

// SortMsgIDs sorts ids in place in the canonical (origin, seq) order used
// for deterministic intra-batch delivery.
func SortMsgIDs(ids []MsgID) { slices.SortFunc(ids, MsgID.Compare) }
