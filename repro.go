// Package repro is a Go reproduction of "Comparison of Failure Detectors
// and Group Membership: Performance Study of Two Atomic Broadcast
// Algorithms" (Urbán, Shnayderman, Schiper; DSN 2003).
//
// It provides, from scratch and on the standard library only:
//
//   - the Chandra–Toueg uniform atomic broadcast on unreliable failure
//     detectors (the paper's FD algorithm) with its ♦S consensus and
//     reliable broadcast substrates;
//   - a fixed-sequencer uniform atomic broadcast on a view-synchronous
//     group membership service (the GM algorithm), including exclusion,
//     rejoin and state transfer, plus the non-uniform §8 variant;
//   - the paper's simulation methodology: a contention-aware network
//     model (per-process CPUs + shared wire), failure detectors modelled
//     by their QoS metrics (TD, TMR, TM), Poisson workloads, and the four
//     benchmark scenarios (normal-steady, crash-steady, suspicion-steady,
//     crash-transient).
//
// Two entry points:
//
//   - the experiment API (RunSteady, and a Runner for the crash-transient
//     scenario and sweeps) reproduces the paper's figures — see
//     cmd/figures;
//   - the Cluster API drives a simulated cluster interactively: broadcast
//     messages, crash processes, inject wrong suspicions, observe
//     deliveries and views — see the examples directory.
//
// Time inside a simulation is virtual: one network time unit is 1 ms, as
// in the paper, and simulations are deterministic given a seed.
package repro

import (
	"io"
	"time"

	"repro/internal/experiment"
	"repro/internal/fd"
	"repro/internal/groups"
	"repro/internal/proto"
	"repro/internal/stats"
	"repro/internal/topo"
)

// Algorithm selects an atomic broadcast implementation.
type Algorithm = experiment.Algorithm

// The implemented algorithms.
const (
	// FD is the Chandra–Toueg atomic broadcast on unreliable failure
	// detectors.
	FD = experiment.FD
	// GM is the fixed-sequencer atomic broadcast on group membership
	// (uniform).
	GM = experiment.GM
	// GMNonUniform is the two-multicast non-uniform sequencer variant.
	GMNonUniform = experiment.GMNonUniform
)

// QoS holds the failure-detector quality-of-service parameters of Chen,
// Toueg and Aguilera: detection time TD, mistake recurrence time TMR and
// mistake duration TM.
type QoS = fd.QoS

// MessageID identifies an atomic broadcast message: origin process plus
// per-origin sequence number.
type MessageID = proto.MsgID

// Config describes one steady-state experiment point; see the package
// documentation of internal/experiment for field semantics.
type Config = experiment.Config

// Result aggregates a steady-state experiment.
type Result = experiment.Result

// TransientConfig describes a crash-transient experiment.
type TransientConfig = experiment.TransientConfig

// TransientResult reports a crash-transient experiment.
type TransientResult = experiment.TransientResult

// RunSteady executes a steady-state scenario (normal-steady, crash-steady
// or suspicion-steady, depending on Config.Crashed and Config.QoS) and
// returns latency statistics with 95% confidence intervals.
func RunSteady(cfg Config) Result { return experiment.RunSteady(cfg) }

// Runner executes experiments — steady points, crash-transient points
// (Transient measures the latency L(p, q) of a probe A-broadcast at the
// instant of a forced crash) and Sweep grids — fanning independent
// replications out over a bounded worker pool (Workers: 0 selects
// GOMAXPROCS, 1 is serial).
// Results are merged in canonical (point, replication) order, so output
// is bit-identical at any worker count. An optional Progress callback
// reports completed replications.
type Runner = experiment.Runner

// Sweep describes a grid of steady-state experiment points: every slice
// field is an axis, crossed in the canonical order that sweepAxes
// (internal/experiment/runner.go) states once; unset axes inherit the
// Base config.
type Sweep = experiment.Sweep

// Collector is a mergeable latency distribution: Welford moments plus
// every raw observation, supporting exact quantiles, histograms and the
// early/late population split of the paper's crash and suspicion
// figures. Result.Dist and TransientResult.Dist carry one per point.
type Collector = stats.Collector

// Quantiles snapshots a distribution's order statistics (min, P50, P90,
// P99, max); every Result carries one for its point.
type Quantiles = stats.Quantiles

// Histogram counts observations into equal-width bins; build one from
// any Collector via its Histogram method.
type Histogram = stats.Histogram

// Summary is a mean-centric snapshot (mean, standard deviation, 95%
// confidence interval, extrema) — the paper's error-bar statistics.
type Summary = stats.Summary

// Observer receives a replication's A-deliveries; implementations that
// also satisfy BroadcastObserver or NetObserver additionally receive
// A-broadcasts and network-model lifecycle events. Observers compose
// cross-cutting measurement with any scenario through Config.Observers.
type Observer = experiment.Observer

// BroadcastObserver is the optional sending-side interface of Observer.
type BroadcastObserver = experiment.BroadcastObserver

// NetObserver is the optional network-tracer interface of Observer.
type NetObserver = experiment.NetObserver

// ObserverFactory builds one Observer per replication; point indexes the
// config within the executed batch (a Sweep's canonical point order) and
// rep the replication. List factories in Config.Observers.
type ObserverFactory = experiment.ObserverFactory

// ObservedDelivery is the A-delivery event observers receive. (The
// interactive Cluster API reports its own richer Delivery type.)
type ObservedDelivery = experiment.Delivery

// ObservedBroadcast is the A-broadcast event BroadcastObservers receive.
type ObservedBroadcast = experiment.Broadcast

// Trace is a cross-cutting observer streaming every replication —
// configuration, broadcasts, network lifecycle events and deliveries —
// to an io.Writer in a replayable format; ReplayTrace re-runs a trace
// and verifies the delivery digests. Call Flush after the run.
type Trace = experiment.Trace

// TraceDigest names one replication's delivery digest.
type TraceDigest = experiment.TraceDigest

// NewTrace creates a trace exporter writing to w; attach it by appending
// its Observer method to Config.Observers.
func NewTrace(w io.Writer) *Trace { return experiment.NewTrace(w) }

// ReplayResult reports one replayed trace replication: the recorded and
// re-run delivery digests and whether they match.
type ReplayResult = experiment.ReplayResult

// ReplayTrace re-executes every replication recorded in a trace from its
// embedded configuration and compares delivery digests. Simulations are
// deterministic in virtual time, so traces replay identically anywhere.
func ReplayTrace(r io.Reader) ([]ReplayResult, error) { return experiment.Replay(r) }

// FaultPlan is a deterministic, virtual-time-ordered timeline of typed
// fault- and environment-injection events: crashes and recoveries,
// suspicion bursts, partitions and heals, per-link loss and delay. One
// plan drives every surface — Config.Plan for experiments, Sweep.Plans
// to cross whole failure schedules with every other axis, and
// ClusterConfig.Plan (or the Cluster's Apply) interactively — and planned
// runs stay deterministic, sweepable and trace-replayable.
type FaultPlan = experiment.FaultPlan

// NewFaultPlan creates a plan from the given events; the plan's
// chainable helpers (Crash, Recover, Suspect, Partition, Heal, Link)
// append further ones. Processes crashed from the start are not events:
// list them in Config.Crashed or ClusterConfig.PreCrashed.
func NewFaultPlan(events ...PlanEvent) *FaultPlan {
	return experiment.NewFaultPlan(events...)
}

// PlanEvent is one typed event on a FaultPlan's timeline: one of Crash,
// Recover, SuspicionBurst, Partition, Heal or LinkFault.
type PlanEvent = experiment.PlanEvent

// Crash kills a process at an instant (reversible by Recover).
type Crash = experiment.Crash

// Recover revives a crashed process: GM algorithms rejoin through the
// membership service with state transfer, the crash-stop FD algorithm
// resumes from its pre-crash state (a long outage).
type Recover = experiment.Recover

// SuspicionBurst injects a scripted wrong suspicion of a process, by the
// listed monitors or (nil) by everyone.
type SuspicionBurst = experiment.SuspicionBurst

// Partition splits the system into isolated groups; unlisted processes
// are isolated alone. Failure detectors treat unreachable processes like
// crashed ones until the partition heals.
type Partition = experiment.Partition

// Heal removes the partition in force.
type Heal = experiment.Heal

// LinkFault degrades one directed link: probabilistic loss and/or extra
// delay. Zero both to clear it.
type LinkFault = experiment.LinkFault

// PlanObserver is the optional observer interface receiving fault-plan
// events at the instants they apply.
type PlanObserver = experiment.PlanObserver

// LoadPlan is a deterministic, virtual-time-ordered timeline of typed
// workload-shaping events — FaultPlan's load-side sibling: rate changes
// (global or per-sender), bursts, per-sender mutes, whole-workload
// pauses. One plan drives every surface — Config.Load for experiments,
// Sweep.Loads to cross shaping schedules with every other axis (Plans
// included, so "overload while partitioned" is one grid point), and
// ClusterConfig.Load (or the Cluster's ApplyLoad) interactively — and
// shaped runs stay deterministic, sweepable and trace-replayable. Rate changes consume no randomness: the gap in
// flight rescales (the exponential is memoryless), so a plan that leaves
// every rate unchanged is bit-identical to no plan at all.
type LoadPlan = experiment.LoadPlan

// NewLoadPlan creates a plan from the given events; the plan's chainable
// helpers (Rate, Burst, Mute, Unmute, Pause, Resume) append further ones.
func NewLoadPlan(events ...LoadEvent) *LoadPlan {
	return experiment.NewLoadPlan(events...)
}

// LoadEvent is one typed event on a LoadPlan's timeline: one of
// RateChange, Burst, Mute, Unmute, Pause or Resume.
type LoadEvent = experiment.LoadEvent

// RateChange sets the A-broadcast rate: sender AllSenders re-spreads the
// rate as a new total throughput, a concrete sender gets it absolutely.
type RateChange = experiment.RateChange

// Burst multiplies a sender's (or everyone's) rate by a factor for a
// duration — the spike of the overload figures.
type Burst = experiment.Burst

// Mute silences one sender (or everyone), freezing its gap and keeping
// its logical rate for Unmute.
type Mute = experiment.Mute

// Unmute lifts a Mute.
type Unmute = experiment.Unmute

// Pause silences the whole workload; Resume lifts it (individually muted
// senders stay muted).
type Pause = experiment.Pause

// Resume lifts a Pause.
type Resume = experiment.Resume

// AllSenders addresses every sender at once in a load event.
const AllSenders = experiment.AllSenders

// LoadObserver is the optional observer interface receiving load-plan
// events at the instants they apply.
type LoadObserver = experiment.LoadObserver

// HeartbeatDetector returns a heartbeat failure-detector tuning (in
// milliseconds, the paper's unit) for Config.Detector, Sweep.Detectors
// or ClusterConfig.Heartbeat. Zero values select the defaults (10 ms
// interval, 3x interval timeout).
func HeartbeatDetector(intervalMs, timeoutMs float64) *HeartbeatConfig {
	return &HeartbeatConfig{Interval: milliseconds(intervalMs), Timeout: milliseconds(timeoutMs)}
}

// milliseconds converts a float millisecond count into a time.Duration,
// for the constructors that take the paper's unit.
func milliseconds(ms float64) time.Duration {
	return time.Duration(ms * float64(time.Millisecond))
}

// ProcessID identifies a process in experiment configurations: 0..N-1.
// The paper's p1 corresponds to ProcessID 0.
type ProcessID = proto.PID

// Topology is an explicit connectivity graph the network model routes
// over: wires (contention domains with their own propagation delay and
// loss) and directed edges riding them. Carry one on Config.Topology
// (Sweep.Base.Topology in a grid) or ClusterConfig.Topology; nil means
// FullMesh(N), the paper's single shared Ethernet, bit-identical to the
// pre-topology model. Build one with a generator below or from literals;
// see internal/topo for the full model.
type Topology = topo.Topology

// Wire describes one contention domain of a Topology, which every message
// hop occupies for the paper's time unit: its propagation delay and
// per-copy loss probability.
type Wire = topo.Wire

// Edge is a directed connection between two processes riding a wire.
type Edge = topo.Edge

// GeoConfig parameterises a Geo topology: Sites datacenters of PerSite
// processes, each site a clique on a LAN wire (the zero Wire), sites
// joined pairwise by WAN wires between gateways.
type GeoConfig = topo.GeoConfig

// FullMesh is the paper's network: every process pair joined directly on
// one shared zero Wire.
func FullMesh(n int) *Topology { return topo.FullMesh(n) }

// Star joins every process to hub 0 over dedicated spoke wires; spoke-
// to-spoke traffic relays through the hub.
func Star(n int) *Topology { return topo.Star(n) }

// Ring joins each process to its two neighbours; multicasts propagate
// both ways around, so latency grows with n while contention stays flat.
func Ring(n int) *Topology { return topo.Ring(n) }

// OneWayRing joins each process to its successor over a dedicated
// unidirectional wire — the fully directed topology: messages relay hop
// by hop the one way round.
func OneWayRing(n int) *Topology { return topo.OneWayRing(n) }

// Clique joins every process pair with a dedicated wire — full direct
// connectivity with no shared medium, the switched-network limit.
func Clique(n int) *Topology { return topo.Clique(n) }

// Geo builds a geo-replicated topology: per-site LAN cliques joined by
// WAN links with their own delay and loss; cross-site traffic relays
// through per-site gateways. The topology's SiteCut method and the
// FaultPlan's PartitionSites constructor cut it along the WAN.
func Geo(cfg GeoConfig) *Topology { return topo.Geo(cfg) }

// GroupMap assigns the N processes to (possibly overlapping) ordered
// process groups, generalizing atomic broadcast to genuine atomic
// multicast: each group runs its own protocol stack, a message is
// disseminated only to its destination groups, and multi-group messages
// are merged into one total order by a deterministic timestamp protocol
// at the destinations. Carry one on Config.Groups, Sweep.GroupMaps or
// ClusterConfig.Groups; nil (or any single-group map covering everyone)
// is bit-identical to the paper's one-group broadcast path. Build one
// with a generator below; see internal/groups for the ordering protocol.
type GroupMap = groups.GroupMap

// GroupSpec is the compact self-describing form of a GroupMap that trace
// headers embed, so a replayed trace rebuilds the exact map.
type GroupSpec = groups.Spec

// Disjoint partitions n processes into k equal (±1) disjoint groups —
// the pure sharding end of the overlap spectrum.
func Disjoint(n, k int) *GroupMap { return groups.Disjoint(n, k) }

// Chained builds k groups where each adjacent pair shares exactly one
// bridge process — the sparse-overlap end of the spectrum.
func Chained(n, k int) *GroupMap { return groups.Chained(n, k) }

// GroupsFromSites derives a GroupMap from a Geo topology: one group per
// site, containing exactly that site's processes.
func GroupsFromSites(t *Topology) *GroupMap { return groups.FromSites(t) }
