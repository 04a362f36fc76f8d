// View-change walkthrough: watch the group membership service react to a
// real crash and to a wrong suspicion — exclusion, rejoin and state
// transfer — the machinery behind the paper's GM algorithm (§4.3).
//
//	go run ./examples/viewchange
package main

import (
	"fmt"
	"time"

	"repro"
)

func main() {
	const n = 4
	fmt.Printf("group membership timeline, n=%d (sequencer = first member)\n\n", n)

	cluster := repro.NewCluster(repro.ClusterConfig{
		Algorithm: repro.GM,
		N:         n,
		QoS:       repro.Detectors(15, 0, 0), // TD = 15 ms
		OnView: func(v repro.ViewInfo) {
			if v.Process != 1 { // one observer is enough for the timeline
				return
			}
			fmt.Printf("  %8.2fms  p%d enters view %d, members %v\n",
				float64(v.At.Microseconds())/1000, v.Process, v.ViewID, v.Members)
		},
	})

	// Background traffic so views always have messages in flight.
	for i := 0; i < 120; i++ {
		cluster.BroadcastAt(i%n, time.Duration(i)*4*time.Millisecond, i)
	}

	fmt.Println("t=100ms: p3 crashes (detected after TD=15ms, then excluded)")
	cluster.CrashAt(3, 100*time.Millisecond)

	fmt.Println("t=250ms: p0 wrongly suspects p2 for 60ms (p2 is excluded, then rejoins)")
	cluster.SuspectAt(0, 2, 250*time.Millisecond, 60*time.Millisecond)

	fmt.Println()
	cluster.Run(2 * time.Second)

	fmt.Println("\nnote: the crashed p3 never returns; the wrongly excluded p2 rejoined")
	fmt.Println("through a join view change plus state transfer, as in the paper's §4.3.")
	// A known GM quirk (ROADMAP.md, item 3): p1 does not suspect p2, so it
	// keeps p2's join pending and starts a new change at every install,
	// while p0, the round-1 coordinator, still suspects p2 and decides
	// [0 1] each time until its mistake ends at 310ms.
	fmt.Println("views 4-6 change nothing: p1 retries p2's join while p0 still suspects p2.")
}
