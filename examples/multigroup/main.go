// Multi-group walkthrough: the ordering layer sharded into four groups
// of three processes, each group a Geo site with its own LAN wire —
// genuine atomic multicast instead of one system-wide broadcast.
//
// Act 1 measures what sharding buys and what crossing shards costs: a
// shard-local message is ordered entirely inside its home group (LAN
// round trips only), while a cross-shard message is disseminated to
// both destination groups, ordered by each, and merged into one total
// order by exchanging timestamp proposals over the WAN — the classic
// latency premium of genuine multicast, paid only by the messages that
// actually span shards.
//
// Act 2 cuts one group off the WAN mid-run. With a single system-wide
// group that partition would stall the minority entirely; with sharded
// ordering the cut group keeps delivering its own shard-local traffic,
// because each shard's protocol stack runs on its own members, and so
// do the two groups that never talk to it. Group 0 stalls all the same:
// it multicasts one message into the cut group, whose timestamp proposal
// cannot cross the cut, and every later group-0 message waits behind
// that message's final timestamp until the heal — the convoy effect of
// genuine multicast. Untouched by the cut means sending nothing into it.
//
//	go run ./examples/multigroup
package main

import (
	"fmt"
	"time"

	"repro"
)

func main() {
	geo := repro.Geo(repro.GeoConfig{
		Sites:   4,
		PerSite: 3,
		WAN:     repro.Wire{Delay: 5 * time.Millisecond},
	})
	groups := repro.GroupsFromSites(geo) // one ordering group per site
	n := geo.N

	// Act 1: shard-local vs cross-shard latency on the same cluster.
	fmt.Printf("act 1: %d processes in %d groups of 3; 90%% shard-local, 10%% cross-shard\n",
		n, groups.NumGroups())
	sentAt := make(map[int]time.Duration)
	firstAt := make(map[int]time.Duration)
	cluster := repro.NewCluster(repro.ClusterConfig{
		Algorithm: repro.FD,
		N:         n,
		Topology:  geo,
		Groups:    groups,
		OnDeliver: func(d repro.Delivery) {
			if body, ok := d.Body.(int); ok {
				if _, seen := firstAt[body]; !seen {
					firstAt[body] = d.At
				}
			}
		},
	})
	const msgs = 200
	cross := make(map[int]bool)
	for i := 0; i < msgs; i++ {
		at := time.Duration(10+5*i) * time.Millisecond
		sender := i % n
		home := groups.Home(repro.ProcessID(sender))
		sentAt[i] = at
		if i%10 == 3 {
			// Every tenth message also targets the next group around.
			other := (home + 1) % groups.NumGroups()
			cross[i] = true
			cluster.MulticastAt(sender, at, []int{home, other}, i)
		} else {
			cluster.MulticastAt(sender, at, []int{home}, i)
		}
	}
	cluster.Run(3 * time.Second)
	var localSum, crossSum time.Duration
	var localN, crossN int
	for body, t0 := range sentAt {
		t1, ok := firstAt[body]
		if !ok {
			continue
		}
		if cross[body] {
			crossSum += t1 - t0
			crossN++
		} else {
			localSum += t1 - t0
			localN++
		}
	}
	ms := func(sum time.Duration, n int) float64 {
		return float64(sum.Microseconds()) / 1000 / float64(n)
	}
	fmt.Printf("  shard-local  mean latency %5.2fms over %d messages (LAN-only ordering)\n",
		ms(localSum, localN), localN)
	fmt.Printf("  cross-shard  mean latency %5.2fms over %d messages (WAN + timestamp merge)\n",
		ms(crossSum, crossN), crossN)

	// Act 2: cut group 1 off the WAN from 300ms to 800ms. Groups 1, 2
	// and 3 keep ordering their shard-local traffic through the cut.
	// Group 0 stalls at 400ms: the cross-shard message it sends into the
	// cut waits for group 1's timestamp proposal, and group 0's later
	// shard-local messages wait behind it until the heal.
	fmt.Println("\nact 2: group 1 (processes 3 4 5) cut off the WAN from 300ms to 800ms")
	plan := repro.NewFaultPlan().
		PartitionGroups(300*time.Millisecond, groups, 1).
		Heal(800 * time.Millisecond)
	type window struct{ during, after int }
	perGroup := make([]window, groups.NumGroups())
	var crossDelivered time.Duration
	cluster2 := repro.NewCluster(repro.ClusterConfig{
		Algorithm: repro.FD,
		N:         n,
		Topology:  geo,
		Groups:    groups,
		QoS:       repro.Detectors(10, 0, 0), // TD = 10 ms
		Plan:      plan,
		OnDeliver: func(d repro.Delivery) {
			if d.Body == "cross-into-cut" && crossDelivered == 0 {
				crossDelivered = d.At
			}
			// Count each group's deliveries at its lowest member.
			g := groups.Home(repro.ProcessID(d.Process))
			if int(groups.Members(g)[0]) != d.Process {
				return
			}
			switch {
			case d.At >= 300*time.Millisecond && d.At < 800*time.Millisecond:
				perGroup[g].during++
			case d.At >= 800*time.Millisecond:
				perGroup[g].after++
			}
		},
	})
	// Steady shard-local traffic from every process, through the cut.
	for i := 0; i < 12*80; i++ {
		sender := i % n
		home := groups.Home(repro.ProcessID(sender))
		cluster2.MulticastAt(sender, time.Duration(10+i)*time.Millisecond, []int{home}, nil)
	}
	// One cross-shard message from group 0 into the cut group, mid-cut.
	cluster2.MulticastAt(0, 400*time.Millisecond, []int{0, 1}, "cross-into-cut")
	cluster2.Run(3 * time.Second)
	for g, w := range perGroup {
		note := ""
		switch g {
		case 0:
			note = "  <- multicast into the cut at 400ms, stalled behind it"
		case 1:
			note = "  <- cut off the WAN, still ordering its shard"
		}
		fmt.Printf("  group %d: %3d deliveries during the cut, %3d after%s\n",
			g, w.during, w.after, note)
	}
	fmt.Printf("  cross-shard message sent at 400ms into the cut delivered at %v (heal at 800ms)\n",
		crossDelivered.Round(time.Millisecond))
}
