//go:build !race

// Allocation-budget regression guards for the pooled hot paths. The
// budgets pin the memory-diet pass so a refactor can't silently
// reintroduce per-message or per-instance allocation. The race detector
// instruments allocation itself, so the file is excluded under -race and
// CI runs it in a separate uninstrumented step.
package repro

import (
	"testing"
	"time"

	"repro/internal/fd"
	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestClusterBroadcastAllocBudget bounds the full-stack hot path that
// cmd/bench times as stack.fd.ns_per_abcast / stack.fd.allocs_per_abcast:
// one atomic broadcast ordered and delivered on a 3-process FD cluster.
// The pooling pass took it from 42 to 13 allocs/op, the dense tables
// under rbcast and ctabcast (proto.IDTable, proto.Window) to 7, and a
// decision log that keeps its bodies in one buffer to 4: the proposal
// snapshot (its ID slice and the box holding it) and the boxed proposal
// and decision messages. With consensus messages carried by value and
// proposals carved from slabs it allocates nothing.
func TestClusterBroadcastAllocBudget(t *testing.T) {
	clusterBroadcastAllocBudget(t, FD, 3, 0)
}

// TestClusterBroadcastAllocBudgetFD7 is the same at n=7. It measured 11
// allocs/op while the log allocated a body slice per batch at every
// process, then 4 until proposals were carved and messages sent by value,
// 0 since.
func TestClusterBroadcastAllocBudgetFD7(t *testing.T) {
	clusterBroadcastAllocBudget(t, FD, 7, 0)
}

// TestFDColdStartAllocBudget bounds what a fresh FD cluster pays before
// it is warm, the cost wide-topo's n=32 replications never amortise: the
// first 32 broadcasts on a new 32-process cluster, per broadcast, the
// cluster's construction subtracted. With a ring per origin in two tables
// at every process, an instance, a slot and a decide closure per
// consensus instance and a body slice per logged batch it measured 190
// allocations per broadcast; with the rings carved from one slab per
// table, one allocation per slot and the log's one body buffer, 60; with
// proposals carved from slabs that start small, 57.5; with logged bodies
// carved from slabs too, 56.5.
func TestFDColdStartAllocBudget(t *testing.T) {
	const n, broadcasts, budget = 32, 32, 70
	delivered := 0
	build := func() *Cluster {
		delivered = 0
		return NewCluster(ClusterConfig{Algorithm: FD, N: n, OnDeliver: func(Delivery) { delivered++ }})
	}
	run := func() {
		c := build()
		for i := 0; i < broadcasts; i++ {
			c.Broadcast(i%n, i)
			c.Run(20 * time.Millisecond)
		}
		c.RunUntilIdle()
	}
	perOp := (testing.AllocsPerRun(4, run) - testing.AllocsPerRun(4, func() { build() })) / broadcasts
	if run(); delivered != n*broadcasts {
		t.Fatalf("%d deliveries, want %d", delivered, n*broadcasts)
	}
	if perOp > budget {
		t.Fatalf("FD n=%d cold start: %.1f allocs per broadcast, budget %d", n, perOp, budget)
	}
}

// TestClusterBroadcastAllocBudgetGM is the GM twin, stack.gm.* in
// cmd/bench. With a fresh buffer and a reflect sort per ack, and ordering
// maps that grew with every message of the view, it measured 23 allocs/op;
// with a reused ack buffer and the maps pruned down to the unstable window,
// 14. Sending every sequencer message in a pooled box and handing the
// received box through instead of re-boxing it took it to 0.92, nearly
// all of it the boxing of the step's integer body: the ordering maps reuse
// their slots once pruning keeps pace.
func TestClusterBroadcastAllocBudgetGM(t *testing.T) {
	clusterBroadcastAllocBudget(t, GM, 3, 2)
}

// TestClusterBroadcastAllocBudgetGM7 is the same at n=7, where the
// sequencer handles six acks per broadcast: the per-ack cost shows here
// first. Measured 51 allocs/op before the ack path stopped allocating,
// 30 after, 0.93 with the pooled boxes.
func TestClusterBroadcastAllocBudgetGM7(t *testing.T) {
	clusterBroadcastAllocBudget(t, GM, 7, 2)
}

// TestGMViewChangeAllocBudget bounds the GM stack's failure path: one
// wrong suspicion -> exclusion -> rejoin cycle per step on a loaded
// 3-process cluster. p0 suspects p2 for 1 ms, the group excludes p2, and
// p2 rejoins by state transfer once its next join request finds nobody
// suspecting it. With a survivor list, a flush-union map and a reflect
// sort per proposal attempt, fresh per-change maps and re-boxed sequencer
// messages it measured 403 allocs/op; with a consensus instance made per
// change, views copied at every install and buffered membership messages
// boxed twice, 114; then 69, and 65 with consensus messages sent by
// value. With membership messages in pooled boxes, buffered by retaining
// the box, and the values every member keeps (decided members, proposal,
// merged flush, flush snapshot) carved from slabs, it reads 6 to 7. About
// 5.5 of those are the test's own: the suspicion SuspectAt schedules and
// the step's arrivals. The rest is amortised growth: slab chunks and the
// sequencer's tables.
func TestGMViewChangeAllocBudget(t *testing.T) {
	gmViewChangeAllocBudget(t, 3, 8)
}

// TestGMViewChangeAllocBudget7 is the same cycle at n=7, where every
// change has seven flushes to merge and seven members to receive its
// values. It measured 236 allocs/op with a consensus instance per change,
// then 133, 129 with consensus messages sent by value, and 7 with pooled
// membership boxes and carved view-change values.
func TestGMViewChangeAllocBudget7(t *testing.T) {
	gmViewChangeAllocBudget(t, 7, 9)
}

func gmViewChangeAllocBudget(t *testing.T, n int, budget float64) {
	newCluster := func(onView func(ViewInfo)) *Cluster {
		return NewCluster(ClusterConfig{Algorithm: GM, N: n, Throughput: 300, OnView: onView})
	}
	step := func(c *Cluster) {
		c.SuspectAt(0, 2, c.Now(), time.Millisecond)
		c.Run(100 * time.Millisecond)
	}

	// The cycle itself, on a twin that observes views: every step installs
	// the exclusion and the rejoin view at p0, and the rejoin view at p2.
	views := make([]int, n)
	twin := newCluster(func(v ViewInfo) { views[v.Process]++ })
	for i := 1; i <= 8; i++ {
		step(twin)
		if views[0] != 1+2*i || views[2] != 1+i {
			t.Fatalf("after %d cycles p0 entered %d views, p2 %d; want %d and %d", i, views[0], views[2], 1+2*i, 1+i)
		}
	}

	c := newCluster(nil)
	for i := 0; i < 16; i++ {
		step(c)
	}
	allocs := testing.AllocsPerRun(64, func() { step(c) })
	if allocs > budget {
		t.Fatalf("GM n=%d view-change cycle: %.1f allocs/op, budget %.0f", n, allocs, budget)
	}
}

// TestQoSMistakeAllocBudget bounds the QoS failure detector's mistake
// process: once warm, a 7-process fd.Sim making a wrong suspicion every
// 10 ms per monitored pair (T_M 1 ms) runs one virtual second without
// allocating. With a closure and an event record per timer — two per
// mistake — it allocated 16 123 times per virtual second.
func TestQoSMistakeAllocBudget(t *testing.T) {
	eng := sim.New()
	s := fd.NewSim(eng, 7, fd.QoS{TMR: 10 * time.Millisecond, TM: time.Millisecond}, sim.NewRand(1))
	edges := &edgeCounter{}
	for q := 0; q < s.N(); q++ {
		s.Detector(q).SetListener(edges)
	}
	second := func() { eng.RunUntil(eng.Now().Add(time.Second)) }
	second() // the event heap and its free list reach their working size
	allocs := testing.AllocsPerRun(4, second)
	if edges.n == 0 {
		t.Fatal("no suspicion edges")
	}
	if allocs > 0 {
		t.Fatalf("QoS mistake process: %.0f allocs per virtual second, budget 0", allocs)
	}
}

type edgeCounter struct{ n int }

func (c *edgeCounter) OnSuspect(int) { c.n++ }
func (c *edgeCounter) OnTrust(int)   { c.n++ }

// TestNewSimAllocBudget bounds building the QoS detector of one n=32
// replication (wide-topo builds eight per pass). One random stream per
// ordered pair and a detector, suspicion row and pair row per monitor cost
// 1093 allocations; with the streams held by value and one backing array
// per table it takes 6.
func TestNewSimAllocBudget(t *testing.T) {
	const budget = 10
	eng, rng := sim.New(), sim.NewRand(1)
	allocs := testing.AllocsPerRun(16, func() { fd.NewSim(eng, 32, fd.QoS{}, rng) })
	if allocs > budget {
		t.Fatalf("fd.NewSim(32): %.0f allocs, budget %d", allocs, budget)
	}
}

func clusterBroadcastAllocBudget(t *testing.T, alg Algorithm, n int, budget float64) {
	delivered := 0
	c := NewCluster(ClusterConfig{
		Algorithm: alg,
		N:         n,
		OnDeliver: func(Delivery) { delivered++ },
	})
	iter := 0
	step := func() {
		c.Broadcast(iter%n, iter)
		c.Run(20 * time.Millisecond)
		iter++
	}
	// Warm the free lists: instance slots, message boxes, event records
	// and table/slice capacity all settle within the first few broadcasts.
	for i := 0; i < 64; i++ {
		step()
	}
	allocs := testing.AllocsPerRun(256, step)
	if delivered == 0 {
		t.Fatal("no deliveries")
	}
	if allocs > budget {
		t.Fatalf("%v n=%d cluster broadcast hot path: %.1f allocs/op, budget %.0f", alg, n, allocs, budget)
	}
}

// TestMulticastSetAllocBudget bounds the set-addressed fan-out that
// shard-local group multicast rides: one MulticastSet to a registered
// 3-member set (one group of a Disjoint(12, 4) layout). Like the full
// fan-out above, the model allocates nothing once warm; the budget of 1
// tolerates amortised engine-queue growth. The cross-group path on top
// of this (the router's gram + per-group timestamp proposals, also
// set-multicasts) pools its envelopes and its pending records, so its
// budget is a handful of set-multicasts like this one plus the gram and
// proposal payloads — TestClusterMulticastAllocBudget below pins it,
// cmd/bench's groups-shard workload and its
// groups.ns_per_mcast_local/_cross metrics record the measured figures.
func TestMulticastSetAllocBudget(t *testing.T) {
	const budget = 1.0
	eng := sim.New()
	nw := netmodel.New(eng, netmodel.DefaultConfig(12), func(int, int, any) {})
	sets := make([]netmodel.SetID, 4)
	for g := 0; g < 4; g++ {
		sets[g] = nw.RegisterSet([]int{3 * g, 3*g + 1, 3*g + 2})
	}
	iter := 0
	step := func() {
		g := iter % 4
		nw.MulticastSet(3*g, sets[g], nil)
		iter++
		if iter%256 == 0 {
			eng.Run()
		}
	}
	for i := 0; i < 1024; i++ {
		step()
	}
	eng.Run()
	allocs := testing.AllocsPerRun(1024, step)
	if allocs > budget {
		t.Fatalf("set multicast hot path: %.2f allocs/op, budget %.0f", allocs, budget)
	}
}

// TestClusterMulticastAllocBudget bounds the group-multicast hot path
// that cmd/bench times as groups.ns_per_mcast_local/_cross: one
// Cluster.Multicast ordered and delivered on a Disjoint(6, 2) FD cluster,
// at every member of its destination groups. With the Router's per-message
// state in hash maps and a fresh pending record and proposal map per
// message and member it measured 20 allocs/op shard-local and 50 across
// both groups; pooled records over proto's dense tables measure 11 and 31
// (the gram, its destination list and one proposal per group remain).
func TestClusterMulticastAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		name   string
		dests  func(p int) []int
		budget float64
	}{
		{"shard-local", func(p int) []int { return []int{p / 3} }, 13},
		{"two-group", func(int) []int { return []int{0, 1} }, 36},
	} {
		t.Run(tc.name, func(t *testing.T) {
			delivered := 0
			c := NewCluster(ClusterConfig{
				Algorithm: FD,
				N:         6,
				Groups:    Disjoint(6, 2),
				OnDeliver: func(Delivery) { delivered++ },
			})
			iter := 0
			step := func() {
				p := iter % 6
				c.Multicast(p, tc.dests(p), "m")
				c.Run(40 * time.Millisecond)
				iter++
			}
			// Warm the free lists and let every table reach its working size.
			for i := 0; i < 128; i++ {
				step()
			}
			allocs := testing.AllocsPerRun(512, step)
			if want := iter * 3 * len(tc.dests(0)); delivered != want {
				t.Fatalf("%d deliveries, want %d", delivered, want)
			}
			if allocs > tc.budget {
				t.Fatalf("%s multicast hot path: %.1f allocs/op, budget %.0f", tc.name, allocs, tc.budget)
			}
		})
	}
}

// TestNetModelMulticastAllocBudget bounds the contention model's
// message pipeline that cmd/bench times as netmodel.ns_per_delivery /
// netmodel.allocs_per_multicast: one multicast fan-out to 7 processes. With a pre-boxed payload the model itself allocates
// nothing once warm; the budget of 1 tolerates a stray amortised
// engine-queue growth.
func TestNetModelMulticastAllocBudget(t *testing.T) {
	const budget = 1.0
	eng := sim.New()
	nw := netmodel.New(eng, netmodel.DefaultConfig(8), func(int, int, any) {})
	iter := 0
	step := func() {
		nw.Multicast(iter%8, nil)
		iter++
		if iter%256 == 0 {
			eng.Run()
		}
	}
	for i := 0; i < 1024; i++ {
		step()
	}
	eng.Run()
	allocs := testing.AllocsPerRun(1024, step)
	if allocs > budget {
		t.Fatalf("netmodel multicast hot path: %.2f allocs/op, budget %.0f", allocs, budget)
	}
}

// TestPoissonArrivalAllocBudget bounds one workload arrival: once armed, a
// Poisson source re-arms the event record it owns, so a virtual second of
// arrivals allocates nothing. With a fresh engine event per arrival it
// cost one allocation each — about 1.1 per measured message on every
// benchmark workload.
func TestPoissonArrivalAllocBudget(t *testing.T) {
	eng := sim.New()
	arrivals := 0
	workload.NewPoisson(eng, sim.NewRand(1), 1000, func() { arrivals++ })
	second := func() { eng.RunUntil(eng.Now().Add(time.Second)) }
	second() // the event heap reaches its working size
	allocs := testing.AllocsPerRun(4, second)
	if arrivals == 0 {
		t.Fatal("no arrivals")
	}
	if allocs > 0 {
		t.Fatalf("Poisson arrivals: %.0f allocs per virtual second (%d arrivals), budget 0", allocs, arrivals)
	}
}

// TestHeartbeatAllocBudget bounds the heartbeat detector's own traffic on
// a warm, otherwise idle 3-process cluster of either stack: every process
// beats and scans for silence once per interval, re-arming the two timer
// records it keeps (proto.Alarm), so an interval allocates nothing. With a
// closure and an engine event per timer firing it cost 18 allocations per
// interval — 3 per firing.
func TestHeartbeatAllocBudget(t *testing.T) {
	const interval = 10 * time.Millisecond
	for _, alg := range []Algorithm{FD, GM} {
		c := NewCluster(ClusterConfig{
			Algorithm: alg, N: 3, Seed: 1,
			Heartbeat: &HeartbeatConfig{Interval: interval, Timeout: 3 * interval},
		})
		c.Run(100 * interval) // the event heap and the wire pools reach their working size
		allocs := testing.AllocsPerRun(8, func() { c.Run(10 * interval) }) / 10
		if allocs > 0 {
			t.Fatalf("%v heartbeats: %.1f allocs per interval, budget 0", alg, allocs)
		}
	}
}

// TestReusedReplicationAllocBudget bounds what one more replication
// costs a one-worker Runner: the Runner resets the worker's warm system
// for it instead of building and warming a new one. Measured as
// (9 replications − 1 replication) / 8.
//
// The sweep-short point repeats one configuration. Building every
// replication afresh it cost 738 allocations; with the system reset in
// place, 193, nearly all of them the messages' own: the proposal
// snapshot and the boxed proposal and decision of each consensus
// instance, and the replication's latency collector. With proposals
// carved from slabs and consensus messages sent by value, 25.
//
// The n=7 points alternate a ring and a clique, as wide-topo's points
// change topology at one size: the reset system rebinds the network to
// the next topology. Built afresh for every topology they cost 599 (FD)
// and 373 (GM) allocations; rebound in place, 35 and 42.
//
// The grouped n=6 points alternate cross-shard fractions 0 and 0.2 on two
// Geo 2×3 topologies with a group per site, as groups-shard's points do:
// each point has its own topology and map, equal in shape. With routers,
// group instances and prune sets built afresh for every replication they
// cost 905 allocations; reset in place, 84.
//
// The heartbeat points repeat one configuration behind the heartbeat
// detector, ungrouped and as two disjoint shards. With their endpoints
// built afresh for every replication, wrappers included, they cost 395
// and 812 allocations; with the wrappers reset in place too, 26 and 80.
func TestReusedReplicationAllocBudget(t *testing.T) {
	const ms = time.Millisecond
	point := func(alg Algorithm, n int, throughput float64, top *Topology) Config {
		return Config{
			Algorithm: alg, N: n, Throughput: throughput, Topology: top, Seed: 1,
			Warmup: 100 * ms, Measure: 200 * ms, Drain: 5 * time.Second,
		}
	}
	// alternating is k replications of alg at n=7, on a ring and a clique
	// in turn.
	alternating := func(alg Algorithm) func(k int) []Config {
		ring, clique := point(alg, 7, 100, Ring(7)), point(alg, 7, 100, Clique(7))
		ring.Replications, clique.Replications = 1, 1
		return func(k int) []Config {
			points := make([]Config, k)
			for i := range points {
				points[i] = ring
				if i%2 == 1 {
					points[i] = clique
				}
			}
			return points
		}
	}
	for _, tc := range []struct {
		name   string
		points func(k int) []Config // k replications
		budget float64
	}{
		{"sweep-short point", func(k int) []Config {
			p := point(FD, 3, 200, nil)
			p.Replications = k
			return []Config{p}
		}, 35},
		{"FD n=7 ring and clique", alternating(FD), 60},
		{"GM n=7 ring and clique", alternating(GM), 60},
		{"FD n=6 sharded, cross 0 and 0.2", func(k int) []Config {
			points := make([]Config, k)
			for i := range points {
				geo := Geo(GeoConfig{Sites: 2, PerSite: 3, WAN: Wire{Delay: 5 * ms}})
				points[i] = point(FD, 6, 120, geo)
				points[i].Groups, points[i].CrossShard, points[i].Replications = GroupsFromSites(geo), 0.2*float64(i%2), 1
			}
			return points
		}, 130},
		{"FD n=3 heartbeat, 200/s", func(k int) []Config {
			p := point(FD, 3, 200, nil)
			p.Detector, p.Replications = HeartbeatDetector(10, 30), k
			return []Config{p}
		}, 35},
		{"FD n=6 sharded heartbeat", func(k int) []Config {
			p := point(FD, 6, 120, nil)
			p.Groups, p.Detector, p.Replications = Disjoint(6, 2), HeartbeatDetector(10, 30), k
			return []Config{p}
		}, 130},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := Runner{Workers: 1}
			reps := func(k int) float64 {
				points := tc.points(k)
				return testing.AllocsPerRun(4, func() {
					for _, res := range r.SteadyAll(points) {
						if res.Messages == 0 {
							t.Fatal("no messages measured")
						}
					}
				})
			}
			if perRep := (reps(9) - reps(1)) / 8; perRep > tc.budget {
				t.Fatalf("%.0f allocs per extra replication, budget %.0f", perRep, tc.budget)
			}
		})
	}
}
