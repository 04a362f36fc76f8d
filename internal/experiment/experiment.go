// Package experiment implements the paper's benchmark methodology (§5):
// repeatable scenarios specifying the workload, the occurrence of crashes
// and suspicions, and the latency metric, with failure detectors described
// only by their QoS parameters.
//
// Latency of one atomic broadcast is the time from A-broadcast(m) to the
// earliest A-delivery of m on any process (§5.1). A run reports the mean
// over many messages; an experiment aggregates several independent
// replications into a mean with a 95% confidence interval — the error
// bars of every figure in §7.
//
// The four scenarios:
//
//   - normal-steady: no crashes, no suspicions (Fig. 4);
//   - crash-steady: some processes crashed long before the measurement —
//     failure detectors suspect them from the start and the GM view never
//     contained them (Fig. 5);
//   - suspicion-steady: no crashes, wrong suspicions at QoS (TMR, TM)
//     (Figs. 6 and 7);
//   - crash-transient: a forced crash of one process with a probe message
//     A-broadcast at the crash instant; the metric is the probe's latency,
//     worst-cased over the crashed/sender pair (Fig. 8).
//
// Parallelism exists at one level, and it does not change a single bit
// of output: Runner.Workers fans the (point, replication) grid out over
// a worker pool. Each replication is its own single-threaded simulation
// (docs/ARCHITECTURE.md records why there is no parallelism inside one).
package experiment

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/fd"
	"repro/internal/groups"
	"repro/internal/hbfd"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
)

// Algorithm selects which atomic broadcast runs.
type Algorithm int

// The algorithms under comparison.
const (
	// FD is the Chandra–Toueg atomic broadcast on unreliable failure
	// detectors (§4.1).
	FD Algorithm = iota + 1
	// GM is the fixed-sequencer atomic broadcast on group membership
	// (§4.2), uniform variant.
	GM
	// GMNonUniform is the two-multicast non-uniform variant (§8).
	GMNonUniform
)

// String returns the short name used in figure legends.
func (a Algorithm) String() string {
	switch a {
	case FD:
		return "FD"
	case GM:
		return "GM"
	case GMNonUniform:
		return "GM-nu"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Config describes one experiment point.
type Config struct {
	// Algorithm selects the protocol under test.
	Algorithm Algorithm
	// N is the number of processes (the paper uses 3 and 7).
	N int
	// Throughput is the overall nominal A-broadcast rate in messages per
	// second; each process sends at Throughput/N.
	Throughput float64
	// Lambda is the network model's CPU/wire cost ratio; zero selects
	// λ = 1, the value of every figure in the DSN paper.
	Lambda float64
	// Topology is the connectivity graph the network routes over: nil
	// selects the paper's model, a full mesh on one shared wire
	// (topo.FullMesh(N)), bit-identical to the pre-topology stack. Any
	// other graph — ring, clique, star, a geo-replicated layout of
	// datacenter cliques joined by WAN links, or a hand-built Topology —
	// changes the routes, the contention domains and the per-wire
	// delay/loss while every other axis (plans, loads, detectors, ...)
	// composes unchanged. The topology's N must equal Config.N. Trace
	// headers embed it, so topology runs replay.
	Topology *topo.Topology
	// Groups, if non-nil and non-trivial, shards the system into groups
	// (possibly overlapping; see internal/groups): each group runs its
	// own protocol instance over its topology subgraph and the workload
	// becomes genuine atomic multicast — each broadcast is addressed to
	// the sender's home group, plus one other group with probability
	// CrossShard. Groups must cover exactly N processes and, with a
	// Topology, every group must be internally connected. A trivial map
	// (one group covering everyone) is normalized away and bit-identical
	// to nil. Trace headers embed the map, so grouped runs replay.
	Groups *groups.GroupMap
	// CrossShard is the fraction of generated broadcasts addressed to a
	// second group besides the sender's home group (groups mode only),
	// in [0, 1]. A ShardMix load event changes it mid-run.
	CrossShard float64
	// QoS parameterises the failure detectors (§6.2). Ignored when
	// Detector selects the concrete heartbeat implementation.
	QoS fd.QoS
	// Detector, if non-nil, replaces the abstract QoS failure-detector
	// model with the concrete heartbeat detector of internal/hbfd: every
	// process multicasts heartbeats through the same contended network as
	// protocol messages, so detection quality degrades with load instead
	// of following prescribed QoS metrics. The QoS field is then ignored
	// (the modelled detectors stay silent), which lets a Sweep cross a
	// QoS axis with a Detectors axis without invalid points.
	Detector *Heartbeat
	// Crashed lists pre-crashed processes (crash-steady): suspected from
	// the start, outside the initial GM view, sending nothing. It is the
	// failure pattern's value at time zero — configuration, where Plan is
	// everything that happens after.
	Crashed []proto.PID
	// Plan is the replication's fault- and environment-injection timeline:
	// crashes and recoveries, suspicion bursts, partitions and heals,
	// per-link loss and delay. Every scenario installs it through the same
	// machinery (see FaultPlan and Faults), and it composes with sweeps
	// via Sweep.Plans, with observers via PlanObserver, and with trace
	// export — trace headers embed the plan, so planned replications
	// replay. A nil plan is the fault-free timeline.
	Plan *FaultPlan
	// Load is the replication's workload-shaping timeline: rate changes
	// (global or per-sender), bursts, per-sender mutes, whole-workload
	// pauses. It is FaultPlan's load-side sibling and composes the same
	// way — Sweep.Loads crosses shaping schedules with every other axis
	// (Sweep.Plans included, so "overload while partitioned" is one grid
	// point), LoadObserver watches events apply, and trace headers embed
	// the plan for replay. A nil plan is the constant-rate workload.
	Load *LoadPlan
	// DisableRenumber turns off the FD algorithm's coordinator
	// renumbering optimisation (§7, crash-steady discussion), which is on
	// by default.
	DisableRenumber bool
	// ParallelSim and SimWorkers are accepted and ignored. They selected
	// the intra-simulation parallel engine, deleted after the benchmark
	// measured it at 0.3-0.4x of serial; their contract was "output
	// bit-identical, only wall clock moves", which ignoring them honours.
	// They remain only because cmd/bench/drives.go (frozen by
	// BENCHMARK.json) still sets them: the next benchmark issue drops the
	// sim.psim_* drive and these two fields together.
	ParallelSim bool
	SimWorkers  int
	// Seed makes the experiment reproducible. Zero means seed 1.
	Seed uint64
	// Warmup is discarded virtual time before measurement starts.
	Warmup time.Duration
	// Measure is the virtual time window whose messages are measured.
	Measure time.Duration
	// Drain bounds how long after the measure window the run waits for
	// outstanding deliveries; messages still missing mark the point
	// unstable.
	Drain time.Duration
	// Replications is the number of independent runs aggregated into the
	// confidence interval. Zero selects 5.
	Replications int
	// Observers lists cross-cutting observer factories; the replication
	// pipeline builds one observer per replication from each and feeds it
	// the replication's events. See Observer and Trace.
	Observers []ObserverFactory
	// transient, when set, makes the point a crash-transient one: the
	// kind travels as data to the replication pipeline, to validate and to
	// trace headers. Set from a TransientConfig (point) or a trace header.
	transient *transientInfo
}

// transientInfo is the crash-transient kind's pair: the process crashed at
// Warmup and the sender of the probe.
type transientInfo struct {
	crash, sender proto.PID
}

// Heartbeat tunes the concrete heartbeat failure detector selected by
// Config.Detector: internal/hbfd's own tuning, zero fields selecting its
// defaults.
type Heartbeat = hbfd.Config

// Defaults used when Config fields are zero.
const (
	DefaultWarmup       = 2 * time.Second
	DefaultMeasure      = 20 * time.Second
	DefaultDrain        = 30 * time.Second
	DefaultReplications = 5
)

func (c Config) withDefaults() Config {
	if c.Lambda == 0 {
		c.Lambda = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Warmup == 0 {
		c.Warmup = DefaultWarmup
	}
	if c.Measure == 0 {
		c.Measure = DefaultMeasure
	}
	if c.Drain == 0 {
		c.Drain = DefaultDrain
	}
	if c.Replications == 0 {
		c.Replications = DefaultReplications
	}
	return c
}

// core translates the experiment point into the description of one of
// its replications' systems; seed is the replication's seed.
func (c Config) core(seed uint64) CoreConfig {
	return CoreConfig{
		Algorithm:  c.Algorithm,
		N:          c.N,
		Lambda:     c.Lambda,
		Topology:   c.Topology,
		Groups:     c.Groups,
		CrossShard: c.CrossShard,
		QoS:        c.QoS,
		Detector:   c.Detector,
		Renumber:   !c.DisableRenumber,
		Seed:       seed,
		PreCrashed: c.Crashed,
		Plan:       c.Plan,
		Throughput: c.Throughput,
		Load:       c.Load,
	}
}

// validate checks the point once, before any replication runs: the
// system rules are CoreConfig.Validate's, only the aggregation knobs and
// the crash-transient pair — a crashed process and a sender that exist,
// differ and are alive at the start — are the Runner's own.
func (c Config) validate() error {
	switch {
	case c.Replications < 0:
		return fmt.Errorf("experiment: Replications = %d", c.Replications)
	case c.Warmup < 0 || c.Measure < 0 || c.Drain < 0:
		return fmt.Errorf("experiment: negative window (Warmup %v, Measure %v, Drain %v)", c.Warmup, c.Measure, c.Drain)
	}
	if err := c.core(c.Seed).Validate(); err != nil || c.transient == nil {
		return err
	}
	crash, sender := c.transient.crash, c.transient.sender
	for _, p := range []proto.PID{crash, sender} {
		if p < 0 || int(p) >= c.N {
			return fmt.Errorf("experiment: crash-transient process %d, want 0..%d", p, c.N-1)
		}
		if slices.Contains(c.Crashed, p) {
			return fmt.Errorf("experiment: crash-transient process %d is in Crashed: the crashed process and the sender must be alive at the start", p)
		}
	}
	if crash == sender {
		return fmt.Errorf("experiment: crash-transient sender must differ from the crashed process (both %d)", crash)
	}
	return nil
}

// Result aggregates an experiment's replications.
type Result struct {
	Config Config
	// Latency is the distribution of replication means, in milliseconds:
	// its Mean and CI95 are what the paper plots.
	Latency stats.Summary
	// PerMessage pools every measured message across replications.
	PerMessage stats.Summary
	// Dist is the full pooled latency distribution behind PerMessage,
	// merged in canonical replication order: quantiles, histograms and
	// early/late splits of the same observations. It exposes the shape
	// that a mean with a confidence interval cannot — the crash and
	// suspicion scenarios' split into an early (failure-free latency) and
	// a late (detection- or view-change-delayed) population.
	Dist stats.Collector
	// Quantiles snapshots Dist's order statistics (P50/P90/P99).
	Quantiles stats.Quantiles
	// Messages is the total number of measured (delivered) messages.
	Messages int
	// Undelivered counts measured messages never delivered within the
	// drain window, across replications.
	Undelivered int
	// Stable is false when messages were left undelivered — the regime
	// where the paper omits the GM curve.
	Stable bool
	// Diverged is true when a replication was aborted because its
	// undelivered backlog exceeded DivergenceBacklog: the offered load
	// plus failure handling exceeded the system's capacity.
	Diverged bool
}

// DivergenceBacklog is the undelivered-message backlog beyond which a
// steady-state run is declared divergent and aborted. Transient backlogs
// under legitimate load are orders of magnitude smaller.
const DivergenceBacklog = 2000

// repSeed derives the seed of one replication.
func repSeed(base uint64, rep int) uint64 {
	r := sim.NewRand(base)
	return r.ForkN(rep).Uint64()
}

// RunSteady executes a steady-state experiment (normal-steady,
// crash-steady or suspicion-steady, depending on Config.Crashed and
// Config.QoS). It is a thin wrapper over a zero-value Runner, so
// replications run in parallel on GOMAXPROCS workers; the result is
// bit-identical to a serial run.
func RunSteady(cfg Config) Result {
	var r Runner
	return r.Steady(cfg)
}

// TransientConfig extends Config for the crash-transient scenario.
type TransientConfig struct {
	Config
	// Crash is the process forced to crash (the paper presents the worst
	// case: the coordinator/sequencer, process 0).
	Crash proto.PID
	// Sender is the process whose probe message is measured. It must
	// differ from Crash, and neither may be listed in Crashed.
	Sender proto.PID
}

// point returns the crash-transient point as the replication pipeline
// takes it: the Config with the kind and its pair attached.
func (c TransientConfig) point() Config {
	cfg := c.Config
	cfg.transient = &transientInfo{crash: c.Crash, sender: c.Sender}
	return cfg
}

// TransientResult reports the crash-transient latency L(p, q).
type TransientResult struct {
	Config TransientConfig
	// Latency is the probe latency distribution over replications (ms).
	Latency stats.Summary
	// Overhead is Latency minus the detection time TD, the quantity
	// Fig. 8 plots.
	Overhead stats.Summary
	// Dist is the probe latency distribution across replications, merged
	// in canonical replication order (ms).
	Dist stats.Collector
	// Quantiles snapshots Dist's order statistics (P50/P90/P99).
	Quantiles stats.Quantiles
	// Lost counts replications whose probe was never delivered.
	Lost int
}

// RunTransient measures L(p, q): the latency of a message A-broadcast by
// Sender at the exact instant Crash crashes, after the system reached a
// steady state under background load. It is a thin wrapper over a
// zero-value Runner.
func RunTransient(cfg TransientConfig) TransientResult {
	var r Runner
	return r.Transient(cfg)
}

// WorstCaseTransient evaluates L(p, q) over every sender q for the given
// crashed process and returns the maximum mean — the paper's
// Lcrash = max L(p, q) restricted to the presented worst case p (the
// coordinator/sequencer). Set sweepCrash to also maximise over p. The
// whole crash × sender grid runs through a zero-value Runner's pool.
func WorstCaseTransient(cfg TransientConfig, sweepCrash bool) TransientResult {
	var r Runner
	return r.WorstCaseTransient(cfg, sweepCrash)
}
