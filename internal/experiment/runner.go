package experiment

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/groups"
	"repro/internal/proto"
	"repro/internal/stats"
)

// Runner executes experiments, fanning independent replications out over
// a bounded worker pool. Every replication is a self-contained
// deterministic simulation keyed by (point, replication seed), and
// results are merged in canonical (point, replication) order, so a
// Runner's output is bit-identical to the serial path regardless of the
// worker count. The zero value runs with GOMAXPROCS workers.
type Runner struct {
	// Workers bounds concurrent replications: 0 selects GOMAXPROCS, 1 is
	// fully serial.
	Workers int
	// Progress, if non-nil, is called after each completed replication
	// with the number of finished and total replications of the current
	// call. It may be invoked concurrently from worker goroutines.
	Progress func(done, total int)
}

// workers resolves the effective pool size for n jobs.
func (r *Runner) workers(n int) int {
	w := r.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	return w
}

// runJobs executes n independent jobs, indices 0..n-1, on the pool. Each
// worker holds one replication value for the whole call and hands it to
// every job it runs, so that consecutive replications of one shape reuse
// one warm Core (replication.run). The value dies with the call: nothing
// warm outlives it, and no job's result depends on which worker ran it or
// what that worker ran before.
func (r *Runner) runJobs(n int, job func(i int, w *replication)) {
	if n == 0 {
		return
	}
	if r.workers(n) == 1 {
		w := new(replication)
		for i := 0; i < n; i++ {
			job(i, w)
			if r.Progress != nil {
				r.Progress(i+1, n)
			}
		}
		return
	}
	var next, done atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < r.workers(n); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := new(replication)
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				job(i, w)
				if r.Progress != nil {
					r.Progress(int(done.Add(1)), n)
				}
			}
		}()
	}
	wg.Wait()
}

// runGrid is the body every kind of point shares: validate each (already
// defaulted) point, panicking with the error of the first bad one, then
// fan the (point, replication) grid out over the pool through the
// replication pipeline, jobs in canonical (point, replication) order.
// Replications come back per point, in replication order, for the
// caller's own aggregation.
func (r *Runner) runGrid(pts []Config) [][]RepStats {
	type job struct{ point, rep int }
	var jobs []job
	reps := make([][]RepStats, len(pts))
	for i, cfg := range pts {
		if err := cfg.validate(); err != nil {
			panic(err)
		}
		reps[i] = make([]RepStats, cfg.Replications)
		for rep := range reps[i] {
			jobs = append(jobs, job{i, rep})
		}
	}
	r.runJobs(len(jobs), func(k int, w *replication) {
		j := jobs[k]
		reps[j.point][j.rep] = w.run(pts[j.point], j.point, j.rep)
	})
	return reps
}

// Steady runs one steady-state experiment point, replications in
// parallel.
func (r *Runner) Steady(cfg Config) Result {
	return r.SteadyAll([]Config{cfg})[0]
}

// SteadyAll runs several steady-state points at once, fanning every
// (point, replication) pair out over the pool. Results come back in
// point order and are identical to running each point serially.
func (r *Runner) SteadyAll(cfgs []Config) []Result {
	pts := make([]Config, len(cfgs))
	for i, cfg := range cfgs {
		pts[i] = cfg.withDefaults()
	}
	out := make([]Result, len(pts))
	for i, reps := range r.runGrid(pts) {
		out[i] = aggregateSteady(pts[i], reps)
	}
	return out
}

// Transient measures L(p, q) at one crash-transient point: the latency of
// a message A-broadcast by Sender at the exact instant Crash crashes, after
// the system reached a steady state under background load. Replications
// run in parallel.
func (r *Runner) Transient(cfg TransientConfig) TransientResult {
	return r.TransientAll([]TransientConfig{cfg})[0]
}

// TransientAll runs several crash-transient points at once, fanning every
// (point, replication) pair out over the pool.
func (r *Runner) TransientAll(cfgs []TransientConfig) []TransientResult {
	cfgs = slices.Clone(cfgs)
	pts := make([]Config, len(cfgs))
	for i := range cfgs {
		cfgs[i].Config = cfgs[i].Config.withDefaults()
		pts[i] = cfgs[i].point()
	}
	out := make([]TransientResult, len(pts))
	for i, reps := range r.runGrid(pts) {
		out[i] = aggregateTransient(cfgs[i], reps)
	}
	return out
}

// WorstCaseTransient evaluates L(p, q) for the given crashed process p
// over every sender q alive at the start — those in Crashed can neither
// crash nor send a probe —, running the senders' replications through the
// pool, and returns the maximum mean: the paper's Lcrash restricted to the
// presented worst case p (the coordinator/sequencer). Maximising over p
// too is one call per crashed process. When no sender's probe was
// delivered, it returns the first sender's point with its Lost count.
func (r *Runner) WorstCaseTransient(cfg TransientConfig) TransientResult {
	var points []TransientConfig
	for q := proto.PID(0); int(q) < cfg.N; q++ {
		if q != cfg.Crash && !slices.Contains(cfg.Crashed, q) {
			point := cfg
			point.Sender = q
			points = append(points, point)
		}
	}
	if len(points) == 0 {
		// Fewer than two live processes leave no (crash, sender) pair: hand
		// the point over as it came, for TransientAll to reject.
		points = append(points, cfg)
	}
	results := r.TransientAll(points)
	// Pick the maximum in canonical grid order, so ties resolve the same
	// way at any worker count.
	worst := results[0]
	for _, res := range results[1:] {
		if res.Latency.N > 0 && (worst.Latency.N == 0 || res.Latency.Mean > worst.Latency.Mean) {
			worst = res
		}
	}
	return worst
}

// Sweep describes a grid of steady-state experiment points over
// Algorithm × N × Throughput × Lambda × Detector × Plan × Load × GroupMap.
// Base supplies every other field — the detector QoS, the crashed set and
// the topology among them; a grid over one of those is one Sweep per
// value. A nil axis inherits the Base value, so a Sweep with all axes nil
// is the single point Base. Observers attached to Base see every point of
// the grid, keyed by its canonical index.
type Sweep struct {
	Base        Config
	Algorithms  []Algorithm
	Ns          []int
	Throughputs []float64
	// Lambdas sweeps the network model's λ parameter (the §6.1 CPU/wire
	// cost ratio; the extended TR's ablation). A zero entry selects λ = 1,
	// as in Config.
	Lambdas []float64
	// Detectors sweeps the failure-detector implementation: each entry is
	// one Config.Detector — a concrete heartbeat tuning, or nil for the
	// abstract QoS model. The axis compares the modelled detector with
	// real heartbeat traffic on the contended network at otherwise
	// identical points.
	Detectors []*Heartbeat
	// Plans sweeps the fault plan: each entry is one Config.Plan — a full
	// fault/environment timeline (crashes, recoveries, suspicion bursts,
	// partitions, link faults), or nil for the fault-free point. The axis
	// crosses whole failure schedules with every other dimension, e.g.
	// the same partition-and-heal timeline under both algorithms at
	// several throughputs.
	Plans []*FaultPlan
	// Loads sweeps the load plan: each entry is one Config.Load — a full
	// workload-shaping timeline (rate changes, bursts, mutes, pauses), or
	// nil for the constant-rate point. Crossed with Plans, one grid
	// expresses "the same burst under the same partition for both
	// algorithms at every throughput" — scenarios as data.
	Loads []*LoadPlan
	// GroupMaps sweeps the group assignment: each entry is one
	// Config.Groups — a generated or raw groups.GroupMap, or nil for the
	// ungrouped broadcast point. Crossed with Throughputs, one grid walks
	// shard-local scaling against group count; Base.CrossShard sets the
	// cross-shard fraction. Entries must cover the point's N.
	GroupMaps []*groups.GroupMap
}

// sweepAxes is the grid's axis table, outermost axis first: the canonical
// point order — Algorithm outermost, then N, Throughput, Lambda, Detector,
// Plan, Load, and GroupMap innermost — is stated here and nowhere else.
// An axis of length zero is not swept: every point inherits Base's value.
// An axis exists only while a command, an example or a benchmark workload
// sets it (TestKnobsHaveWriters); Base carries the rest.
var sweepAxes = [...]struct {
	len   func(s *Sweep) int
	apply func(s *Sweep, c *Config, i int)
}{
	{func(s *Sweep) int { return len(s.Algorithms) },
		func(s *Sweep, c *Config, i int) { c.Algorithm = s.Algorithms[i] }},
	{func(s *Sweep) int { return len(s.Ns) },
		func(s *Sweep, c *Config, i int) { c.N = s.Ns[i] }},
	{func(s *Sweep) int { return len(s.Throughputs) },
		func(s *Sweep, c *Config, i int) { c.Throughput = s.Throughputs[i] }},
	{func(s *Sweep) int { return len(s.Lambdas) },
		func(s *Sweep, c *Config, i int) { c.Lambda = s.Lambdas[i] }},
	{func(s *Sweep) int { return len(s.Detectors) },
		func(s *Sweep, c *Config, i int) { c.Detector = s.Detectors[i] }},
	{func(s *Sweep) int { return len(s.Plans) },
		func(s *Sweep, c *Config, i int) { c.Plan = s.Plans[i] }},
	{func(s *Sweep) int { return len(s.Loads) },
		func(s *Sweep, c *Config, i int) { c.Load = s.Loads[i] }},
	{func(s *Sweep) int { return len(s.GroupMaps) },
		func(s *Sweep, c *Config, i int) { c.Groups = s.GroupMaps[i] }},
}

// Points expands the grid in the canonical order of sweepAxes: point k's
// axis indices are the digits of k in the mixed radix of the swept axes'
// lengths, the innermost axis least significant.
func (s Sweep) Points() []Config {
	total := 1
	for _, ax := range sweepAxes {
		if n := ax.len(&s); n > 0 {
			total *= n
		}
	}
	out := make([]Config, total)
	for k := range out {
		out[k] = s.Base
		rest := k
		for a := len(sweepAxes) - 1; a >= 0; a-- {
			if n := sweepAxes[a].len(&s); n > 0 {
				sweepAxes[a].apply(&s, &out[k], rest%n)
				rest /= n
			}
		}
	}
	return out
}

// Sweep runs every point of the grid, fanning all (point, replication)
// pairs out over the pool, and returns results in Points order.
func (r *Runner) Sweep(s Sweep) []Result {
	return r.SteadyAll(s.Points())
}

// aggregateSteady merges one point's replications, in replication order,
// into the reported Result. The canonical merge order keeps every
// statistic — means, and now quantiles and histograms through Dist —
// bit-identical at any worker count.
func aggregateSteady(cfg Config, reps []RepStats) Result {
	var repMeans stats.Sample
	var pooled stats.Collector
	messages, undelivered := 0, 0
	diverged := false
	for i := range reps {
		rs := &reps[i]
		if rs.Diverged {
			diverged = true
		}
		undelivered += rs.Undelivered
		messages += rs.Latencies.N()
		if rs.Latencies.N() > 0 {
			repMeans.Add(rs.Latencies.Mean())
		}
		pooled.Merge(&rs.Latencies)
	}
	return Result{
		Config:      cfg,
		Latency:     repMeans.Summarize(),
		PerMessage:  pooled.Summarize(),
		Dist:        pooled,
		Quantiles:   pooled.Quantiles(),
		Messages:    messages,
		Undelivered: undelivered,
		Stable:      undelivered == 0 && messages > 0 && !diverged,
		Diverged:    diverged,
	}
}

// aggregateTransient merges one point's replications, in replication
// order, into the reported TransientResult.
func aggregateTransient(cfg TransientConfig, reps []RepStats) TransientResult {
	var lat stats.Collector
	var overhead stats.Sample
	lost := 0
	tdMs := float64(cfg.QoS.TD) / float64(time.Millisecond)
	for i := range reps {
		rs := &reps[i]
		if rs.Latencies.N() == 0 {
			lost++
			continue
		}
		l := rs.Latencies.Mean() // exactly one probe observation
		lat.Add(l)
		overhead.Add(l - tdMs)
	}
	return TransientResult{
		Config:    cfg,
		Latency:   lat.Summarize(),
		Overhead:  overhead.Summarize(),
		Dist:      lat,
		Quantiles: lat.Quantiles(),
		Lost:      lost,
	}
}
