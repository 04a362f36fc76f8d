package experiment

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/groups"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/topo"
)

// FaultPlan is a deterministic, virtual-time-ordered timeline of typed
// fault- and environment-injection events. One plan expresses what used
// to take three ad-hoc surfaces: pre-crashed processes (Config.Crashed),
// scripted mid-run faults (the crash-transient scenario, the interactive
// Cluster's CrashAt/SuspectAt) and everything neither could say —
// recoveries, partitions and heals, per-link loss and delay.
//
// Plans compose with every other axis: carry one on Config.Plan, cross
// several in a sweep through Sweep.Plans, attach observers to watch the
// events fire (PlanObserver), and export replayable traces whose headers
// embed the plan. Replications of a planned experiment stay bit-identical
// at any Runner worker count, exactly like unplanned ones.
//
// Build a plan from literals, or with the chainable helpers:
//
//	plan := experiment.NewFaultPlan().
//		Partition(2500*time.Millisecond, []proto.PID{0, 1, 2}, []proto.PID{3, 4}).
//		Heal(4 * time.Second)
//
// Event times are absolute virtual instants from the start of the
// replication (the workload's warmup starts at zero); events beyond the
// replication's horizon (measure end plus drain) never apply. The
// steady scenarios' divergence abort observes the backlog at process 0,
// so plans that partition or crash p0 away from the majority should
// disable nothing but expect the run to be cut short once the backlog
// passes DivergenceBacklog.
type FaultPlan struct {
	// Events is the timeline. Order is irrelevant: installation sorts by
	// time, ties applying in slice order.
	Events []PlanEvent
}

// NewFaultPlan creates a plan from the given events; the chainable
// helpers below append further ones.
func NewFaultPlan(events ...PlanEvent) *FaultPlan {
	return &FaultPlan{Events: events}
}

// PlanEvent is one typed event on a FaultPlan's timeline. The concrete
// types are Crash, Recover, SuspicionBurst, Partition, Heal, LinkFault
// and PreCrash; the set is closed because every consumer (the installer,
// the trace format, validation) must understand every event.
type PlanEvent interface {
	// When returns the virtual instant the event applies at.
	When() time.Duration
	// String renders the event canonically — the trace format's F lines
	// and error messages use it.
	String() string
	planEvent()
}

// Crash kills process P at instant At: the network stops carrying its
// messages (in-flight ones still arrive), failure detectors begin
// detection, and its handler never runs again — until a Recover.
type Crash struct {
	At time.Duration
	P  proto.PID
}

// Recover revives process P at instant At. The network and failure
// detectors treat P as alive again immediately; what the algorithm does
// depends on what it can do. The GM algorithms model a true
// crash-recovery: a fresh incarnation starts excluded, rejoins through
// the membership service's join protocol and catches up via state
// transfer. The FD algorithm is crash-stop — it has no rejoin protocol —
// so recovery is modelled as the end of a long outage: the process
// resumes with its state intact and closes its decision gap through
// decision-log catch-up (a suffix transfer from a live peer, robust to
// outages far longer than the consensus instance window).
type Recover struct {
	At time.Duration
	P  proto.PID
}

// SuspicionBurst injects a scripted wrong suspicion of P at instant At,
// lasting For (zero is an instantaneous mistake whose suspect and trust
// edges still fire). By lists the monitors that make the mistake; nil
// means every other process — the burst the name promises. Suspicions of
// an already-detected crashed process merge into the permanent one.
type SuspicionBurst struct {
	At  time.Duration
	P   proto.PID
	For time.Duration
	By  []proto.PID
}

// Partition splits the system into isolated groups at instant At: message
// copies crossing groups are discarded before the destination CPU, and
// every failure detector treats unreachable processes like crashed ones
// (suspicion TD after the split, trust on heal). A process listed in no
// group is isolated on its own. A new Partition replaces the previous
// one; Heal removes it.
type Partition struct {
	At     time.Duration
	Groups [][]proto.PID
}

// Heal removes the partition in force at instant At, restoring
// reachability and withdrawing every suspicion the split caused.
type Heal struct {
	At time.Duration
}

// LinkFault degrades the directed link From → To at instant At: each
// message copy on the link is independently lost with probability Loss
// (drawn from a dedicated deterministic stream), and surviving copies
// enter the destination CPU ExtraDelay late. A LinkFault with both zero
// clears the link's fault; a new LinkFault replaces the previous one.
type LinkFault struct {
	At         time.Duration
	From, To   proto.PID
	Loss       float64
	ExtraDelay time.Duration
}

// PreCrash establishes the crash-steady initial condition for P: crashed
// long before the run, suspected by every detector from time zero with no
// edges fired, outside the initial GM view. It applies before the system
// starts (When is always zero). Config.Crashed is a constructor for this
// event: the two spellings produce bit-identical runs.
type PreCrash struct {
	P proto.PID
}

func (e Crash) When() time.Duration          { return e.At }
func (e Recover) When() time.Duration        { return e.At }
func (e SuspicionBurst) When() time.Duration { return e.At }
func (e Partition) When() time.Duration      { return e.At }
func (e Heal) When() time.Duration           { return e.At }
func (e LinkFault) When() time.Duration      { return e.At }
func (e PreCrash) When() time.Duration       { return 0 }

func (Crash) planEvent()          {}
func (Recover) planEvent()        {}
func (SuspicionBurst) planEvent() {}
func (Partition) planEvent()      {}
func (Heal) planEvent()           {}
func (LinkFault) planEvent()      {}
func (PreCrash) planEvent()       {}

func (e Crash) String() string   { return fmt.Sprintf("crash p%d", e.P) }
func (e Recover) String() string { return fmt.Sprintf("recover p%d", e.P) }

func (e SuspicionBurst) String() string {
	by := "all"
	if e.By != nil {
		parts := make([]string, len(e.By))
		for i, q := range e.By {
			parts[i] = fmt.Sprintf("p%d", q)
		}
		by = strings.Join(parts, ",")
	}
	return fmt.Sprintf("suspect p%d for %v by %s", e.P, e.For, by)
}

func (e Partition) String() string {
	parts := make([]string, len(e.Groups))
	for i, g := range e.Groups {
		ms := make([]string, len(g))
		for k, p := range g {
			ms[k] = fmt.Sprintf("%d", p)
		}
		parts[i] = "{" + strings.Join(ms, " ") + "}"
	}
	return "partition " + strings.Join(parts, "|")
}

func (e Heal) String() string { return "heal" }

func (e LinkFault) String() string {
	return fmt.Sprintf("link p%d->p%d loss=%g delay=%v", e.From, e.To, e.Loss, e.ExtraDelay)
}

func (e PreCrash) String() string { return fmt.Sprintf("precrash p%d", e.P) }

// Crash appends a Crash event and returns the plan for chaining.
func (p *FaultPlan) Crash(at time.Duration, pid proto.PID) *FaultPlan {
	p.Events = append(p.Events, Crash{At: at, P: pid})
	return p
}

// Recover appends a Recover event.
func (p *FaultPlan) Recover(at time.Duration, pid proto.PID) *FaultPlan {
	p.Events = append(p.Events, Recover{At: at, P: pid})
	return p
}

// Suspect appends a SuspicionBurst of pid lasting d; by selects the
// monitors (none means all).
func (p *FaultPlan) Suspect(at time.Duration, pid proto.PID, d time.Duration, by ...proto.PID) *FaultPlan {
	p.Events = append(p.Events, SuspicionBurst{At: at, P: pid, For: d, By: by})
	return p
}

// Partition appends a Partition event with the given groups.
func (p *FaultPlan) Partition(at time.Duration, groups ...[]proto.PID) *FaultPlan {
	p.Events = append(p.Events, Partition{At: at, Groups: groups})
	return p
}

// Heal appends a Heal event.
func (p *FaultPlan) Heal(at time.Duration) *FaultPlan {
	p.Events = append(p.Events, Heal{At: at})
	return p
}

// PartitionSites appends a Partition event along the topology's WAN cut:
// the listed sites of a Geo (or any grouped) topology on one side,
// everyone else on the other — the "datacenter falls off the WAN" fault
// as a first-class constructor. It panics if the topology records no
// site groups, exactly like Topology.SiteCut.
func (p *FaultPlan) PartitionSites(at time.Duration, t *topo.Topology, sites ...int) *FaultPlan {
	cut := t.SiteCut(sites...)
	groups := make([][]proto.PID, len(cut))
	for i, g := range cut {
		groups[i] = make([]proto.PID, len(g))
		for k, pid := range g {
			groups[i][k] = proto.PID(pid)
		}
	}
	return p.Partition(at, groups...)
}

// PartitionGroups appends a Partition event isolating the listed groups
// of a GroupMap: the union of their members on one side, everyone else
// on the other. It is PartitionSites' group-layer sibling — "one shard
// falls off the network" as a first-class constructor — and composes
// with overlapping maps (a bridge member of a listed and an unlisted
// group lands on the isolated side).
func (p *FaultPlan) PartitionGroups(at time.Duration, m *groups.GroupMap, gids ...int) *FaultPlan {
	if len(gids) == 0 {
		panic("experiment: PartitionGroups with no groups")
	}
	inA := make([]bool, m.N())
	for _, g := range gids {
		for _, pid := range m.Members(g) {
			inA[pid] = true
		}
	}
	var a, b []proto.PID
	for pid := 0; pid < m.N(); pid++ {
		if inA[pid] {
			a = append(a, proto.PID(pid))
		} else {
			b = append(b, proto.PID(pid))
		}
	}
	if len(b) == 0 {
		panic(fmt.Sprintf("experiment: PartitionGroups(%v) isolates every process", gids))
	}
	return p.Partition(at, a, b)
}

// Link appends a LinkFault event.
func (p *FaultPlan) Link(at time.Duration, from, to proto.PID, loss float64, extraDelay time.Duration) *FaultPlan {
	p.Events = append(p.Events, LinkFault{At: at, From: from, To: to, Loss: loss, ExtraDelay: extraDelay})
	return p
}

// PreCrash appends a PreCrash event.
func (p *FaultPlan) PreCrash(pid proto.PID) *FaultPlan {
	p.Events = append(p.Events, PreCrash{P: pid})
	return p
}

// timed returns the plan's non-PreCrash events sorted by time, stable so
// same-instant events apply in slice order. A nil plan yields nil.
func (p *FaultPlan) timed() []PlanEvent {
	if p == nil {
		return nil
	}
	out := make([]PlanEvent, 0, len(p.Events))
	for _, ev := range p.Events {
		if _, pre := ev.(PreCrash); !pre {
			out = append(out, ev)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].When() < out[j].When() })
	return out
}

// preCrashes returns the plan's PreCrash targets in slice order. A nil
// plan yields nil.
func (p *FaultPlan) preCrashes() []proto.PID {
	if p == nil {
		return nil
	}
	var out []proto.PID
	for _, ev := range p.Events {
		if pre, ok := ev.(PreCrash); ok {
			out = append(out, pre.P)
		}
	}
	return out
}

// hasRecover reports whether the plan schedules a Recover event, which
// groups mode only supports for stacks that resume in place.
func (p *FaultPlan) hasRecover() bool {
	if p == nil {
		return false
	}
	for _, ev := range p.Events {
		if _, ok := ev.(Recover); ok {
			return true
		}
	}
	return false
}

// Validate checks every event against a system of n processes: process
// IDs in range, non-negative times and durations, loss probabilities in
// [0, 1], partition groups disjoint. A nil plan is valid.
func (p *FaultPlan) Validate(n int) error { return p.validate(n) }

// validate checks every event against a system of n processes.
func (p *FaultPlan) validate(n int) error {
	if p == nil {
		return nil
	}
	checkPID := func(pid proto.PID, what string) error {
		if int(pid) < 0 || int(pid) >= n {
			return fmt.Errorf("experiment: plan %s names process %d, want 0..%d", what, pid, n-1)
		}
		return nil
	}
	for _, ev := range p.Events {
		if ev.When() < 0 {
			return fmt.Errorf("experiment: plan event %q at negative time %v", ev, ev.When())
		}
		switch e := ev.(type) {
		case Crash:
			if err := checkPID(e.P, "crash"); err != nil {
				return err
			}
		case Recover:
			if err := checkPID(e.P, "recover"); err != nil {
				return err
			}
		case PreCrash:
			if err := checkPID(e.P, "precrash"); err != nil {
				return err
			}
		case SuspicionBurst:
			if err := checkPID(e.P, "suspicion"); err != nil {
				return err
			}
			if e.For < 0 {
				return fmt.Errorf("experiment: plan suspicion of p%d with negative duration %v", e.P, e.For)
			}
			for _, q := range e.By {
				if err := checkPID(q, "suspicion monitor"); err != nil {
					return err
				}
			}
		case Partition:
			seen := make(map[proto.PID]bool)
			for _, g := range e.Groups {
				for _, pid := range g {
					if err := checkPID(pid, "partition"); err != nil {
						return err
					}
					if seen[pid] {
						return fmt.Errorf("experiment: plan partition lists process %d twice", pid)
					}
					seen[pid] = true
				}
			}
		case Heal:
			// Nothing to check; healing a whole network is a no-op.
		case LinkFault:
			if err := checkPID(e.From, "link source"); err != nil {
				return err
			}
			if err := checkPID(e.To, "link destination"); err != nil {
				return err
			}
			if e.From == e.To {
				return fmt.Errorf("experiment: plan link fault on self link p%d", e.From)
			}
			if e.Loss < 0 || e.Loss > 1 {
				return fmt.Errorf("experiment: plan link loss %v outside [0,1]", e.Loss)
			}
			if e.ExtraDelay < 0 {
				return fmt.Errorf("experiment: plan link delay %v negative", e.ExtraDelay)
			}
		default:
			return fmt.Errorf("experiment: unknown plan event type %T", ev)
		}
	}
	return nil
}

// Faults applies plan events to a running system. It is the single fault
// injection path: NewCore builds it and installs CoreConfig.Plan through
// it, the crash-transient scenario fires its scripted crash through it,
// and the interactive Cluster's fault methods schedule through it
// (Core.Apply), so every current and future scenario shares one set of
// semantics. Recover and Heal events act through the Core's
// algorithm-aware hooks (Core.Recover, Core.Healed).
type Faults struct {
	core *Core
	// OnEvent, if non-nil, observes each event at the instant it applies.
	OnEvent func(ev PlanEvent)
}

// Install schedules every timed event of the plan on the system's engine,
// sorted by time with ties in slice order. PreCrash events are not
// installed here: builders apply them before the system starts.
func (f *Faults) Install(plan *FaultPlan) {
	for _, ev := range plan.timed() {
		f.Schedule(ev)
	}
}

// Schedule arms one event to apply at its instant. Scheduling an event in
// the simulation's past panics, as any scheduling in the past does.
func (f *Faults) Schedule(ev PlanEvent) {
	f.core.Eng.Schedule(sim.Time(ev.When()), func() { f.Fire(ev) })
}

// Fire applies one event at the current instant, regardless of its When.
func (f *Faults) Fire(ev PlanEvent) {
	sys := f.core.Sys
	switch e := ev.(type) {
	case Crash:
		sys.Crash(e.P)
	case Recover:
		f.core.Recover(e.P)
	case SuspicionBurst:
		if e.By != nil {
			for _, q := range e.By {
				sys.FDs.InjectMistake(int(q), int(e.P), e.For)
			}
		} else {
			for q := 0; q < sys.N(); q++ {
				if proto.PID(q) != e.P {
					sys.FDs.InjectMistake(q, int(e.P), e.For)
				}
			}
		}
	case Partition:
		sys.Partition(e.Groups)
	case Heal:
		sys.Heal()
		f.core.Healed()
	case LinkFault:
		sys.Net.SetLink(int(e.From), int(e.To), e.Loss, e.ExtraDelay)
	case PreCrash:
		panic("experiment: PreCrash applies before the system starts, not on the timeline")
	default:
		panic(fmt.Sprintf("experiment: unknown plan event type %T", ev))
	}
	if f.OnEvent != nil {
		f.OnEvent(ev)
	}
}
