// Topology walkthrough: a geo-replicated deployment — three datacenter
// sites of three processes, LAN cliques joined pairwise by 5 ms WAN
// links through per-site gateways — compared against the paper's single
// shared Ethernet on the same workload, then cut along the WAN.
//
// The topology changes nothing about the algorithm: the same FD atomic
// broadcast orders the same messages, but cross-site traffic now relays
// LAN → gateway → WAN → gateway → LAN, paying propagation delay on the
// WAN wires instead of contending for one global medium. The second act
// drops site 2 off the WAN with the plan's PartitionSites constructor —
// the partition follows the topology's site groups, no process lists to
// keep in sync — and heals it; the majority sites keep delivering
// throughout while the failure detectors handle the cut site like a
// crash, and the healed site catches back up.
//
//	go run ./examples/geo
package main

import (
	"fmt"
	"time"

	"repro"
)

func main() {
	geo := repro.Geo(repro.GeoConfig{
		Sites:   3,
		PerSite: 3,
		WAN:     repro.Wire{Delay: 5 * time.Millisecond},
	})
	n := geo.N

	// Act 1: the same failure-free workload on the paper's Ethernet and
	// on the geo graph. The latency gap is pure topology: WAN hops and
	// gateway relays versus one shared wire.
	fmt.Printf("act 1: %d processes, full mesh vs %s (4 WAN hops worst case)\n", n, geo.Name)
	for _, tp := range []*repro.Topology{nil, geo} {
		name := "fullmesh"
		if tp != nil {
			name = tp.Name
		}
		var sum time.Duration
		var count int
		sent := make(map[int]time.Duration) // by body
		cluster := repro.NewCluster(repro.ClusterConfig{
			Algorithm: repro.FD,
			N:         n,
			Topology:  tp,
			OnDeliver: func(d repro.Delivery) {
				sum += d.At - sent[d.Body.(int)]
				count++
			},
		})
		const msgs = 30
		for i := 0; i < msgs; i++ {
			at := time.Duration(i) * 20 * time.Millisecond
			sent[i] = at
			cluster.BroadcastAt(i%n, at, i)
		}
		cluster.Run(3 * time.Second)
		st := cluster.Stats()
		fmt.Printf("  %-8s  mean latency %6.2fms over %d deliveries, %d wire slots\n",
			name, float64(sum.Microseconds())/1000/float64(count), count, st.WireSlots)
	}

	// Act 2: cut site 2 off the WAN mid-run and heal it. PartitionSites
	// derives the process groups from the topology's site membership.
	fmt.Println("\nact 2: WAN cut of site 2 (processes 6 7 8) from 300ms to 800ms")
	plan := repro.NewFaultPlan().
		PartitionSites(300*time.Millisecond, geo, 2).
		Heal(800 * time.Millisecond)
	delivered := make([]int, n)
	cluster := repro.NewCluster(repro.ClusterConfig{
		Algorithm: repro.FD,
		N:         n,
		Topology:  geo,
		QoS:       repro.Detectors(10, 0, 0), // TD = 10 ms
		Plan:      plan,
		OnDeliver: func(d repro.Delivery) { delivered[d.Process]++ },
		OnFault: func(at time.Duration, ev repro.PlanEvent) {
			fmt.Printf("  %8.2fms  fault: %v\n", float64(at.Microseconds())/1000, ev)
		},
	})
	const msgs = 40
	for i := 0; i < msgs; i++ {
		// Only the majority sites broadcast, so every message is
		// deliverable: site 2's own partition-era messages would be
		// swallowed by the cut (the FD algorithm never resends them).
		p := i % 6
		cluster.BroadcastAt(p, time.Duration(i)*20*time.Millisecond, i)
	}
	cluster.Run(5 * time.Second)
	fmt.Println("  deliveries per process (majority sites keep running; site 2 catches up after the heal):")
	for s := 0; s < 3; s++ {
		fmt.Printf("    site %d:", s)
		for i := 0; i < 3; i++ {
			fmt.Printf("  p%d=%d", s*3+i, delivered[s*3+i])
		}
		fmt.Println()
	}
	st := cluster.Stats()
	fmt.Printf("  %d message copies lost to the WAN cut\n", st.Lost)
}
