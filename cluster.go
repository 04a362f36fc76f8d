package repro

import (
	"fmt"
	"time"

	"repro/internal/experiment"
	"repro/internal/fd"
	"repro/internal/gm"
	"repro/internal/netmodel"
	"repro/internal/proto"
	"repro/internal/sim"
)

// Delivery reports one A-delivery observed at one process.
type Delivery struct {
	Process int
	ID      MessageID
	Body    any
	At      time.Duration // virtual time since simulation start
}

// ViewInfo reports one membership view entered by a process (GM
// algorithms only).
type ViewInfo struct {
	Process int
	ViewID  uint64
	Members []int
	At      time.Duration
}

// NetEvent is a message lifecycle point in the network model, for traces.
type NetEvent struct {
	Stage   string // "send", "wire", "deliver", "drop"
	From    int
	To      int // -1 for the wire stage of multicasts
	Payload string
	At      time.Duration
}

// NetStats snapshots network activity counters.
type NetStats struct {
	Unicasts   uint64
	Multicasts uint64
	WireSlots  uint64
	Deliveries uint64
	// Lost counts message copies discarded by a partition or lossy link.
	Lost uint64
}

// ClusterConfig configures an interactive simulated cluster.
type ClusterConfig struct {
	// Algorithm selects the atomic broadcast (default FD).
	Algorithm Algorithm
	// N is the number of processes.
	N int
	// Lambda is the CPU/wire cost ratio of the network model (default 1,
	// the paper's setting).
	Lambda float64
	// QoS parameterises the failure detectors (default: perfect).
	QoS QoS
	// Seed makes the run reproducible (default 1).
	Seed uint64
	// PreCrashed lists processes crashed long before the start: suspected
	// from time zero, outside the initial GM view, sending nothing. It is
	// an initial condition, so it is configuration rather than a Plan
	// event — the same thing Config.Crashed states for experiments.
	PreCrashed []int
	// Plan is a fault- and environment-injection timeline installed at
	// construction: crashes and recoveries, suspicion bursts, partitions
	// and heals, link faults. Apply schedules the same events through the
	// same machinery interactively, so a scripted session and a planned
	// one are interchangeable.
	Plan *FaultPlan
	// Throughput, when positive, runs the paper's Poisson workload on the
	// cluster: every non-pre-crashed process A-broadcasts nil bodies at
	// rate Throughput/N, exactly as experiments do. Zero starts the
	// sources silent — a RateChange load event can still raise them
	// mid-run.
	Throughput float64
	// Load is a workload-shaping timeline installed at construction: rate
	// changes, bursts, per-sender mutes, pauses. ApplyLoad schedules the
	// same events through the same machinery interactively.
	Load *LoadPlan
	// OnDeliver observes every A-delivery at every process.
	OnDeliver func(d Delivery)
	// OnView observes view installations (GM algorithms only).
	OnView func(v ViewInfo)
	// OnFault, if non-nil, observes every plan event at the instant it
	// applies.
	OnFault func(at time.Duration, ev PlanEvent)
	// OnLoad, if non-nil, observes every load event at the instant it
	// applies.
	OnLoad func(at time.Duration, ev LoadEvent)
	// Heartbeat, if non-nil, replaces the abstract QoS failure-detector
	// model with a concrete heartbeat detector whose messages share the
	// contended network (see internal/hbfd). QoS is then ignored: the
	// modelled detectors run silent.
	Heartbeat *HeartbeatConfig
	// Topology is the connectivity graph the network routes over: nil is
	// FullMesh(N), the paper's shared Ethernet. The topology's N must
	// equal the cluster's N.
	Topology *Topology
	// Groups, when non-nil, shards the ordering layer: each group runs
	// its own protocol stack, Broadcast addresses the sender's home group
	// (see CrossShard) and Multicast any destination set, with cross-group
	// messages merged into one total order at the destinations. A nil (or single-group)
	// map is bit-identical to the paper's one-group broadcast path.
	// Crash-recovery (Recover events) is supported in groups mode for the
	// FD algorithm only.
	Groups *GroupMap
	// CrossShard is the fraction of broadcasts — the built-in Poisson
	// workload's arrivals and Broadcast calls alike — sent cross-shard
	// (home group plus one uniformly random other group); the rest stays
	// shard-local. Groups mode only, for the whole run.
	CrossShard float64
}

// HeartbeatConfig tunes the concrete heartbeat failure detector: the
// Interval between heartbeats (default 10 ms) and the Timeout of silence
// before suspicion (default 3x Interval). It is the same type
// Config.Detector and Sweep.Detectors take, so one tuning value drives
// both the interactive Cluster and the experiment Runner.
type HeartbeatConfig = experiment.Heartbeat

// Cluster is an interactively driven simulated cluster running one of the
// paper's atomic broadcast algorithms. All methods must be called from a
// single goroutine; time only advances inside Run calls.
//
// Faults — crashes, recoveries, wrong suspicions, partitions and heals,
// link loss and delay — are FaultPlan events: give a full timeline in
// ClusterConfig.Plan, or script interactively with Apply and the event
// literal (Apply(Recover{At: at, P: 2})), which schedules the same event
// through the same machinery; CrashAt and SuspectAt abbreviate the two
// events every walkthrough uses. Load — the built-in Poisson workload's
// rate, bursts, mutes and pauses — is LoadPlan events the same way:
// ClusterConfig.Throughput and Load at construction, ApplyLoad with the
// event literal interactively.
//
// In groups mode, crash-recovery (Recover events) is supported for the FD
// algorithm only; NewCluster rejects a GM-algorithm plan containing
// Recover events at construction, and Apply rejects one at the call.
type Cluster struct {
	// core is the assembled system: the same experiment.Core a Runner
	// replication runs on. The Cluster only adapts types and hooks.
	core *experiment.Core
}

// NewCluster builds a cluster. It panics on invalid configuration, with
// the error the experiment Runner rejects the same configuration with.
func NewCluster(cfg ClusterConfig) *Cluster {
	if cfg.Algorithm == 0 {
		cfg.Algorithm = FD
	}
	if cfg.Lambda == 0 {
		cfg.Lambda = 1
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	cc := experiment.CoreConfig{
		Algorithm:  cfg.Algorithm,
		N:          cfg.N,
		Lambda:     cfg.Lambda,
		Topology:   cfg.Topology,
		Groups:     cfg.Groups,
		CrossShard: cfg.CrossShard,
		QoS:        cfg.QoS,
		Detector:   cfg.Heartbeat,
		Renumber:   true,
		Seed:       cfg.Seed,
		PreCrashed: make([]proto.PID, len(cfg.PreCrashed)),
		Plan:       cfg.Plan,
		Throughput: cfg.Throughput,
		Load:       cfg.Load,
		Deliver: func(pid proto.PID, id proto.MsgID, body any, at sim.Time) {
			if cfg.OnDeliver != nil {
				cfg.OnDeliver(Delivery{
					Process: int(pid),
					ID:      id,
					Body:    body,
					At:      at.Duration(),
				})
			}
		},
	}
	for i, p := range cfg.PreCrashed {
		cc.PreCrashed[i] = proto.PID(p)
	}
	if cfg.OnView != nil {
		cc.OnView = func(pid proto.PID, v gm.View, at sim.Time) {
			ms := make([]int, len(v.Members))
			for i, m := range v.Members {
				ms[i] = int(m)
			}
			cfg.OnView(ViewInfo{
				Process: int(pid),
				ViewID:  v.ID,
				Members: ms,
				At:      at.Duration(),
			})
		}
	}
	if err := cc.Validate(); err != nil {
		panic(err)
	}
	core := experiment.NewCore(cc)
	c := &Cluster{core: core}
	if cfg.OnFault != nil {
		core.Faults.OnEvent = func(ev PlanEvent) { cfg.OnFault(c.Now(), ev) }
	}
	core.StartLoad(func(s int) { core.Broadcast(s, nil) })
	if cfg.OnLoad != nil {
		core.Loads.OnEvent = func(ev LoadEvent) { cfg.OnLoad(c.Now(), ev) }
	}
	return c
}

// Now returns the current virtual time.
func (c *Cluster) Now() time.Duration { return c.core.Eng.Now().Duration() }

// Broadcast A-broadcasts body from process p at the current instant and
// returns the message ID — the same entry point the built-in workload
// fires, so in groups mode the message goes to p's home group plus, with
// probability CrossShard, one other group.
func (c *Cluster) Broadcast(p int, body any) MessageID {
	c.checkProcess(p)
	id, _ := c.core.Broadcast(p, body)
	return id
}

// BroadcastAt schedules an A-broadcast from process p at virtual time at.
func (c *Cluster) BroadcastAt(p int, at time.Duration, body any) {
	c.checkProcess(p)
	c.core.Eng.Schedule(sim.Time(at), func() { c.core.Broadcast(p, body) })
}

// Multicast A-multicasts body from process p to the given destination
// groups at the current instant and returns the message ID: the genuine
// atomic multicast primitive, delivered exactly once at every live
// member of the destination groups in one total order. Groups mode only
// (ClusterConfig.Groups non-nil); destinations may come in any order.
func (c *Cluster) Multicast(p int, dests []int, body any) MessageID {
	return c.core.Multicast(p, c.checkMulticast(p, dests), body)
}

// MulticastAt schedules an A-multicast from process p to the given
// destination groups at virtual time at.
func (c *Cluster) MulticastAt(p int, at time.Duration, dests []int, body any) {
	ds := c.checkMulticast(p, dests)
	c.core.Eng.Schedule(sim.Time(at), func() { c.Multicast(p, ds, body) })
}

// checkProcess panics at the call on a process the cluster does not have.
func (c *Cluster) checkProcess(p int) {
	if n := c.core.Sys.N(); p < 0 || p >= n {
		panic(fmt.Sprintf("repro: process %d, want 0..%d", p, n-1))
	}
}

// checkMulticast panics at the call on a multicast the cluster cannot
// send, and returns its destinations sorted, in a fresh slice.
func (c *Cluster) checkMulticast(p int, dests []int) []int {
	if c.core.Coord == nil {
		panic("repro: Multicast needs a multi-group ClusterConfig.Groups")
	}
	c.checkProcess(p)
	return c.core.Coord.Map().Dests(dests)
}

// Apply schedules one fault-plan event at its instant: the interactive
// spelling of every fault (CrashAt and SuspectAt below are sugar for it).
// It panics on an event the system cannot honour (the rules
// ClusterConfig.Plan is held to) or one scheduled in the simulation's
// past.
func (c *Cluster) Apply(ev PlanEvent) {
	if err := c.core.Apply(ev); err != nil {
		panic(err)
	}
}

// CrashAt schedules a crash of process p at virtual time at.
func (c *Cluster) CrashAt(p int, at time.Duration) {
	c.Apply(Crash{At: at, P: proto.PID(p)})
}

// SuspectAt schedules a wrong suspicion: monitor starts suspecting target
// at the given instant, for the given duration (0 is an instantaneous
// mistake whose edges still fire).
func (c *Cluster) SuspectAt(monitor, target int, at, duration time.Duration) {
	c.Apply(SuspicionBurst{At: at, P: proto.PID(target), For: duration, By: []ProcessID{proto.PID(monitor)}})
}

// ApplyLoad schedules one load-plan event at its instant: the interactive
// spelling of every load change. The cluster's Poisson sources
// exist whatever ClusterConfig.Throughput was (a zero throughput just
// starts them silent), so load events always have something to act on.
// It panics on an invalid event or one scheduled in the simulation's
// past.
func (c *Cluster) ApplyLoad(ev LoadEvent) {
	if err := c.core.ApplyLoad(ev); err != nil {
		panic(err)
	}
}

// Run advances virtual time by d, processing all events on the way.
func (c *Cluster) Run(d time.Duration) {
	c.core.Eng.RunUntil(c.core.Eng.Now().Add(d))
}

// RunUntilIdle processes events until none remain. A cluster whose
// Poisson workload is active never idles — it keeps scheduling arrivals
// forever — so pause or silence the workload (a Pause event, or a
// RateChange to 0) before draining with this method; use Run to advance a
// live workload by a bounded amount instead.
func (c *Cluster) RunUntilIdle() { c.core.Eng.Run() }

// Crashed reports whether process p has crashed.
func (c *Cluster) Crashed(p int) bool {
	c.checkProcess(p)
	return c.core.Sys.Proc(proto.PID(p)).Crashed()
}

// Stats snapshots network activity so far.
func (c *Cluster) Stats() NetStats {
	counters := c.core.Sys.Net.Counters()
	return NetStats{
		Unicasts:   counters.Unicasts,
		Multicasts: counters.Multicasts,
		WireSlots:  counters.WireSlots,
		Deliveries: counters.Deliveries,
		Lost:       counters.Lost,
	}
}

// SetTrace installs a network-level observer (nil removes it). Useful for
// printing Fig. 1-style message diagrams; see examples/trace.
func (c *Cluster) SetTrace(fn func(NetEvent)) {
	if fn == nil {
		c.core.Sys.Net.SetTrace(nil)
		return
	}
	c.core.Sys.Net.SetTrace(func(ev netmodel.TraceEvent) {
		fn(NetEvent{
			Stage:   ev.Kind.String(),
			From:    ev.From,
			To:      ev.To,
			Payload: netmodel.PayloadName(ev.Payload),
			At:      ev.At.Duration(),
		})
	})
}

// Detectors returns a QoS with the given metrics in milliseconds, the
// unit the paper uses throughout.
func Detectors(tdMs, tmrMs, tmMs float64) QoS {
	return fd.QoS{TD: milliseconds(tdMs), TMR: milliseconds(tmrMs), TM: milliseconds(tmMs)}
}
