package experiment

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/groups"
	"repro/internal/proto"
	"repro/internal/topo"
)

// FaultPlan is a deterministic, virtual-time-ordered timeline of typed
// fault- and environment-injection events: scripted mid-run faults (the
// crash-transient scenario, the interactive Cluster's CrashAt/SuspectAt)
// and everything those could not say — recoveries, partitions and heals,
// per-link loss and delay. What holds before the run starts is not an
// event: processes crashed from the start are configuration
// (Config.Crashed, CoreConfig.PreCrashed).
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

// add appends one event and returns the plan for chaining.
func (p *FaultPlan) add(ev PlanEvent) *FaultPlan {
	p.Events = append(p.Events, ev)
	return p
}

// PlanEvent is one typed event on a FaultPlan's timeline. The concrete
// types are Crash, Recover, SuspicionBurst, Partition, Heal and LinkFault
// (planKinds lists them); the set is closed because every consumer (the
// installer, the trace format, validation) must understand every event.
type PlanEvent interface {
	event
	// planEvent names the event's kind in trace headers. Being unexported
	// it also closes the set, and keeps it disjoint from LoadEvent.
	planEvent() string
	// apply performs the event on a running system.
	apply(c *Core)
}

// checkPIDs reports the first of pids that is no process of an n-process
// system; what names the role for the error.
func checkPIDs(n int, what string, pids ...proto.PID) error {
	for _, pid := range pids {
		if pid < 0 || int(pid) >= n {
			return fmt.Errorf("experiment: plan %s names process %d, want 0..%d", what, pid, n-1)
		}
	}
	return nil
}

// Crash kills process P at instant At: the network stops carrying its
// messages (in-flight ones still arrive), failure detectors begin
// detection, and its handler never runs again — until a Recover.
type Crash struct {
	At time.Duration `json:"at,omitempty"`
	P  proto.PID     `json:"p,omitempty"`
}

func (e Crash) When() time.Duration { return e.At }
func (Crash) planEvent() string     { return "crash" }
func (e Crash) String() string      { return fmt.Sprintf("crash p%d", e.P) }
func (e Crash) check(n int) error   { return checkPIDs(n, "crash", e.P) }
func (e Crash) apply(c *Core)       { c.Sys.Crash(e.P) }

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
	At time.Duration `json:"at,omitempty"`
	P  proto.PID     `json:"p,omitempty"`
}

func (e Recover) When() time.Duration { return e.At }
func (Recover) planEvent() string     { return "recover" }
func (e Recover) String() string      { return fmt.Sprintf("recover p%d", e.P) }
func (e Recover) check(n int) error   { return checkPIDs(n, "recover", e.P) }
func (e Recover) apply(c *Core)       { c.Recover(e.P) }

// SuspicionBurst injects a scripted wrong suspicion of P at instant At,
// lasting For (zero is an instantaneous mistake whose suspect and trust
// edges still fire). By lists the monitors that make the mistake, P not
// among them; nil means every other process — the burst the name
// promises. Suspicions of an already-detected crashed process merge into
// the permanent one.
type SuspicionBurst struct {
	At  time.Duration `json:"at,omitempty"`
	P   proto.PID     `json:"p,omitempty"`
	For time.Duration `json:"for,omitempty"`
	By  []proto.PID   `json:"by,omitempty"`
}

func (e SuspicionBurst) When() time.Duration { return e.At }
func (SuspicionBurst) planEvent() string     { return "suspect" }

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

func (e SuspicionBurst) check(n int) error {
	if err := checkPIDs(n, "suspicion", e.P); err != nil {
		return err
	}
	if e.For < 0 {
		return fmt.Errorf("experiment: plan suspicion of p%d with negative duration %v", e.P, e.For)
	}
	if e.By != nil && len(e.By) == 0 {
		// "No monitor" to apply, but a trace header drops the empty list
		// and reads back nil, "every monitor": the replay would diverge.
		return fmt.Errorf("experiment: plan suspicion of p%d by an empty monitor list (nil means every monitor)", e.P)
	}
	if slices.Contains(e.By, e.P) {
		// A detector never suspects its own process: the event would be
		// observed and traced while changing nothing.
		return fmt.Errorf("experiment: plan suspicion of p%d by itself (nil means every other monitor)", e.P)
	}
	return checkPIDs(n, "suspicion monitor", e.By...)
}

func (e SuspicionBurst) apply(c *Core) {
	if e.By != nil {
		for _, q := range e.By {
			c.Sys.FDs.InjectMistake(int(q), int(e.P), e.For)
		}
		return
	}
	for q := 0; q < c.Sys.N(); q++ {
		if proto.PID(q) != e.P {
			c.Sys.FDs.InjectMistake(q, int(e.P), e.For)
		}
	}
}

// Partition splits the system into isolated groups at instant At: message
// copies crossing groups are discarded before the destination CPU, and
// every failure detector treats unreachable processes like crashed ones
// (suspicion TD after the split, trust on heal). A process listed in no
// group is isolated on its own. A new Partition replaces the previous
// one; Heal removes it.
type Partition struct {
	At     time.Duration `json:"at,omitempty"`
	Groups [][]proto.PID `json:"groups,omitempty"`
}

func (e Partition) When() time.Duration { return e.At }
func (Partition) planEvent() string     { return "partition" }
func (e Partition) apply(c *Core)       { c.Sys.Partition(e.Groups) }

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

func (e Partition) check(n int) error {
	seen := make(map[proto.PID]bool)
	for _, g := range e.Groups {
		for _, pid := range g {
			if err := checkPIDs(n, "partition", pid); err != nil {
				return err
			}
			if seen[pid] {
				return fmt.Errorf("experiment: plan partition lists process %d twice", pid)
			}
			seen[pid] = true
		}
	}
	return nil
}

// Heal removes the partition in force at instant At, restoring
// reachability and withdrawing every suspicion the split caused. Healing
// a whole network is a no-op.
type Heal struct {
	At time.Duration `json:"at,omitempty"`
}

func (e Heal) When() time.Duration { return e.At }
func (Heal) planEvent() string     { return "heal" }
func (Heal) String() string        { return "heal" }
func (Heal) check(int) error       { return nil }

func (Heal) apply(c *Core) {
	c.Sys.Heal()
	c.Healed()
}

// LinkFault degrades the directed link From → To at instant At: each
// message copy on the link is independently lost with probability Loss
// (drawn from a dedicated deterministic stream), and surviving copies
// enter the destination CPU ExtraDelay late. A LinkFault with both zero
// clears the link's fault; a new LinkFault replaces the previous one.
type LinkFault struct {
	At         time.Duration `json:"at,omitempty"`
	From       proto.PID     `json:"from,omitempty"`
	To         proto.PID     `json:"to,omitempty"`
	Loss       float64       `json:"loss,omitempty"`
	ExtraDelay time.Duration `json:"delay,omitempty"`
}

func (e LinkFault) When() time.Duration { return e.At }
func (LinkFault) planEvent() string     { return "link" }

func (e LinkFault) String() string {
	return fmt.Sprintf("link p%d->p%d loss=%g delay=%v", e.From, e.To, e.Loss, e.ExtraDelay)
}

func (e LinkFault) check(n int) error {
	if err := checkPIDs(n, "link source", e.From); err != nil {
		return err
	}
	if err := checkPIDs(n, "link destination", e.To); err != nil {
		return err
	}
	switch {
	case e.From == e.To:
		return fmt.Errorf("experiment: plan link fault on self link p%d", e.From)
	case e.Loss < 0 || e.Loss > 1:
		return fmt.Errorf("experiment: plan link loss %v outside [0,1]", e.Loss)
	case e.ExtraDelay < 0:
		return fmt.Errorf("experiment: plan link delay %v negative", e.ExtraDelay)
	}
	return nil
}

func (e LinkFault) apply(c *Core) {
	c.Sys.Net.SetLink(int(e.From), int(e.To), e.Loss, e.ExtraDelay)
}

// Crash appends a Crash event and returns the plan for chaining.
func (p *FaultPlan) Crash(at time.Duration, pid proto.PID) *FaultPlan {
	return p.add(Crash{At: at, P: pid})
}

// Recover appends a Recover event.
func (p *FaultPlan) Recover(at time.Duration, pid proto.PID) *FaultPlan {
	return p.add(Recover{At: at, P: pid})
}

// Suspect appends a SuspicionBurst of pid lasting d; by selects the
// monitors (none means all).
func (p *FaultPlan) Suspect(at time.Duration, pid proto.PID, d time.Duration, by ...proto.PID) *FaultPlan {
	return p.add(SuspicionBurst{At: at, P: pid, For: d, By: by})
}

// Partition appends a Partition event with the given groups.
func (p *FaultPlan) Partition(at time.Duration, groups ...[]proto.PID) *FaultPlan {
	return p.add(Partition{At: at, Groups: groups})
}

// Heal appends a Heal event.
func (p *FaultPlan) Heal(at time.Duration) *FaultPlan {
	return p.add(Heal{At: at})
}

// PartitionSites appends a Partition event along the topology's WAN cut:
// the listed sites of a Geo (or any grouped) topology on one side,
// everyone else on the other — the "datacenter falls off the WAN" fault
// as a first-class constructor. It panics if the topology records no
// site groups, exactly like Topology.SiteCut.
func (p *FaultPlan) PartitionSites(at time.Duration, t *topo.Topology, sites ...int) *FaultPlan {
	return p.Partition(at, proto.PIDGroups(t.SiteCut(sites...))...)
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
	return p.add(LinkFault{At: at, From: from, To: to, Loss: loss, ExtraDelay: extraDelay})
}

// Faults applies plan events to a running system. It is the single fault
// injection path: NewCore builds it and installs CoreConfig.Plan through
// it, the crash-transient scenario fires its scripted crash through it,
// and the interactive Cluster's fault methods schedule through it
// (Core.Apply), so every current and future scenario shares one set of
// semantics. Recover and Heal events act through the Core's
// algorithm-aware hooks (Core.Recover, Core.Healed).
type Faults = installer[PlanEvent]
