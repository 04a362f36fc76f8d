package main

import (
	"time"

	"repro"
)

// workload is one named, fixed list of experiment points. A pass runs the
// whole list once through a Runner with one seed on every point.
type workload struct {
	name string
	// workers is the Runner pool size of the timed passes: 1 everywhere
	// except sweep-short, the one workload measured on two cores.
	workers int
	// build makes the point list from scratch — fresh topologies and group
	// maps, so routing tables compile inside set-up, where setup_s sees
	// them.
	build func() []repro.Config
	// busyPoint indexes the point whose wire occupancy
	// netmodel.wire_busy_share reports, or -1.
	busyPoint int
	// virtPasses is how many timed passes the virtual metrics pool in a
	// run limited by time, which makes at least as many: enough samples
	// for a steady p99, few enough to fit the time budget. A fixed count
	// keeps the pool independent of how fast the host is.
	virtPasses int
}

var (
	algs   = []repro.Algorithm{repro.FD, repro.GM}
	wan5ms = repro.Wire{Delay: 5 * time.Millisecond}
)

// steadyGrid is the paper's Fig. 4 grid with long measure windows: the
// protocol and kernel hot paths do nearly all the work.
func steadyGrid(alg repro.Algorithm) []repro.Config {
	return repro.Sweep{
		Base: repro.Config{
			Algorithm:    alg,
			Warmup:       500 * time.Millisecond,
			Measure:      4 * time.Second,
			Drain:        10 * time.Second,
			Replications: 1,
		},
		Ns:          []int{3, 7},
		Throughputs: []float64{100, 400, 700},
	}.Points()
}

// faultGrid runs both stacks in their failure modes: wrong suspicions at
// two QoS settings, a crash with recovery, a long-ago crash, and the
// concrete heartbeat detector sharing the wire.
func faultGrid() []repro.Config {
	base := repro.Config{
		Throughput:   100,
		Warmup:       500 * time.Millisecond,
		Measure:      4 * time.Second,
		Drain:        15 * time.Second,
		Replications: 1,
	}
	var out []repro.Config
	for _, alg := range algs {
		for _, n := range []int{3, 7} {
			c := base
			c.Algorithm, c.N = alg, n

			frequent := c
			frequent.QoS = repro.Detectors(0, 100, 0)
			rare := c
			rare.QoS = repro.Detectors(0, 1000, 10)
			recover := c
			recover.QoS = repro.Detectors(10, 0, 0)
			recover.Plan = repro.NewFaultPlan().
				Crash(1500*time.Millisecond, 0).
				Recover(3*time.Second, 0)
			crashed := c
			crashed.Throughput = 300
			crashed.Crashed = []repro.ProcessID{repro.ProcessID(n - 1)}
			out = append(out, frequent, rare, recover, crashed)
		}
	}
	for _, alg := range algs {
		c := base
		c.Algorithm, c.N = alg, 3
		c.Detector = repro.HeartbeatDetector(10, 30)
		out = append(out, c)
	}
	return out
}

// shortSweep is many tiny replications: per-replication fixed cost, the
// Runner pool and the canonical merge carry their largest share here.
func shortSweep() []repro.Config {
	return repro.Sweep{
		Base: repro.Config{
			Warmup:       100 * time.Millisecond,
			Measure:      200 * time.Millisecond,
			Drain:        5 * time.Second,
			Replications: 4,
		},
		Algorithms:  algs,
		Ns:          []int{3, 5, 7},
		Throughputs: []float64{50, 100, 200, 400},
		Lambdas:     []float64{0.5, 1, 2},
	}.Points()
}

// wideTopologies is relay-heavy large-N graphs: per-hop routing and the
// event heap at depth dominate, ordering logic per event is small.
func wideTopologies() []repro.Config {
	var out []repro.Config
	for _, alg := range algs {
		for _, t := range []*repro.Topology{
			repro.Ring(32),
			repro.Star(32),
			repro.Geo(repro.GeoConfig{Sites: 4, PerSite: 8, WAN: wan5ms}),
			repro.Clique(32),
		} {
			out = append(out, repro.Config{
				Algorithm:    alg,
				N:            32,
				Throughput:   20,
				Topology:     t,
				Warmup:       500 * time.Millisecond,
				Measure:      3 * time.Second,
				Drain:        60 * time.Second,
				Replications: 1,
			})
		}
	}
	return out
}

// shardedGroups is genuine atomic multicast over geo sites: shard-local
// points exercise set-multicast and per-group instances, the cross-shard
// points the timestamp merge. The offered rate is 60/s per site, so every
// shard carries the same load at every k: a fixed total rate either
// saturates the two-site cross-shard point (its latency then swings with
// the seed) or leaves most messages of the wider points at the idle-system
// latency (the pooled median is then one constant).
func shardedGroups() []repro.Config {
	var out []repro.Config
	for _, k := range []int{2, 4, 8} {
		for _, cross := range []float64{0, 0.2} {
			t := repro.Geo(repro.GeoConfig{Sites: k, PerSite: 3, WAN: wan5ms})
			out = append(out, repro.Config{
				Algorithm:    repro.FD,
				N:            3 * k,
				Throughput:   60 * float64(k),
				Topology:     t,
				Groups:       repro.GroupsFromSites(t),
				CrossShard:   cross,
				Warmup:       500 * time.Millisecond,
				Measure:      3 * time.Second,
				Drain:        15 * time.Second,
				Replications: 1,
			})
		}
	}
	return out
}

// workloads lists the benchmark's workloads; the names are fixed because
// later issues cite them. BENCHMARK.json and README.md say why each exists.
var workloads = []workload{
	{
		name:       "fd-steady",
		workers:    1,
		build:      func() []repro.Config { return steadyGrid(repro.FD) },
		busyPoint:  5,
		virtPasses: 40,
	},
	{
		name:       "gm-steady",
		workers:    1,
		build:      func() []repro.Config { return steadyGrid(repro.GM) },
		busyPoint:  5,
		virtPasses: 40,
	},
	{
		name:       "faults",
		workers:    1,
		build:      faultGrid,
		busyPoint:  -1,
		virtPasses: 40,
	},
	{
		name:       "sweep-short",
		workers:    2,
		build:      shortSweep,
		busyPoint:  -1,
		virtPasses: 40,
	},
	{
		name:       "wide-topo",
		workers:    1,
		build:      wideTopologies,
		busyPoint:  -1,
		virtPasses: 100,
	},
	{
		name:       "groups-shard",
		workers:    1,
		build:      shardedGroups,
		busyPoint:  -1,
		virtPasses: 40,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
