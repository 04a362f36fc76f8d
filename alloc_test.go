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

	"repro/internal/netmodel"
	"repro/internal/sim"
)

// TestClusterBroadcastAllocBudget bounds the full-stack hot path that
// cmd/bench times as stack.fd.ns_per_abcast / stack.fd.allocs_per_abcast:
// one atomic broadcast ordered and delivered on a 3-process FD cluster.
// The pooling pass took it from 42 to 13 allocs/op, the dense tables
// under rbcast and ctabcast (proto.IDTable, proto.Window) to a measured
// 7; the budget leaves slack for toolchain noise while staying below
// what the hash maps cost.
func TestClusterBroadcastAllocBudget(t *testing.T) {
	clusterBroadcastAllocBudget(t, FD, 3, 9)
}

// TestClusterBroadcastAllocBudgetGM is the GM twin, stack.gm.* in
// cmd/bench. With a fresh buffer and a reflect sort per ack, and ordering
// maps that grew with every message of the view, it measured 23 allocs/op;
// with a reused ack buffer and the maps pruned down to the unstable window
// it measures 14. seqabcast still keeps that per-message state in hash
// maps; the change that moves it onto the dense tables lowers this fence
// again.
func TestClusterBroadcastAllocBudgetGM(t *testing.T) {
	clusterBroadcastAllocBudget(t, GM, 3, 16)
}

// TestClusterBroadcastAllocBudgetGM7 is the same at n=7, where the
// sequencer handles six acks per broadcast: the per-ack cost shows here
// first. Measured 51 allocs/op before the ack path stopped allocating,
// 30 after.
func TestClusterBroadcastAllocBudgetGM7(t *testing.T) {
	clusterBroadcastAllocBudget(t, GM, 7, 34)
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
