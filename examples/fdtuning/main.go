// FD tuning: replace the paper's abstract QoS failure-detector model with
// a concrete heartbeat detector whose messages share the contended
// network, and sweep its timeout. Short timeouts detect crashes fast
// (small TD) but produce wrong suspicions under load (small TMR) that
// burn consensus rounds; long timeouts are accurate but slow to react
// when the coordinator really crashes. This is the quality-of-service
// trade-off the paper's Section 6.2 abstracts into (TD, TMR, TM), made
// concrete.
//
//	go run ./examples/fdtuning
package main

import (
	"fmt"
	"time"

	"repro"
)

// measure runs one experiment at the given heartbeat timeout: steady load
// from p1/p2, a crash of the coordinator p0 at 700ms with a probe message
// broadcast at the same instant. It returns the mean steady-state latency
// (pre-crash messages) and the probe's crash-recovery latency.
func measure(timeout time.Duration) (steadyMs, recoveryMs float64) {
	crashAt := 700 * time.Millisecond

	// Send times by body (the load's ints and "probe"), dropped at the
	// first delivery.
	sent := make(map[any]time.Duration)
	var steady []time.Duration
	var probe time.Duration

	cluster := repro.NewCluster(repro.ClusterConfig{
		Algorithm: repro.FD,
		N:         3,
		Heartbeat: &repro.HeartbeatConfig{
			Interval: 5 * time.Millisecond,
			Timeout:  timeout,
		},
		OnDeliver: func(d repro.Delivery) {
			t0, first := sent[d.Body]
			if !first {
				return
			}
			delete(sent, d.Body)
			if d.Body == "probe" {
				probe = d.At - t0
			} else if t0 < crashAt-50*time.Millisecond {
				steady = append(steady, d.At-t0)
			}
		},
	})

	// Steady load: 150 messages from p1 and p2.
	for i := 0; i < 150; i++ {
		at := time.Duration(i) * 4 * time.Millisecond
		sent[i] = at
		cluster.BroadcastAt(1+i%2, at, i)
	}
	// Crash the coordinator and probe at the same instant.
	cluster.CrashAt(0, crashAt)
	sent["probe"] = crashAt
	cluster.BroadcastAt(1, crashAt, "probe")

	cluster.Run(5 * time.Second)

	var sum time.Duration
	for _, l := range steady {
		sum += l
	}
	steadyMs = float64(sum.Microseconds()) / float64(len(steady)) / 1000
	recoveryMs = float64(probe.Microseconds()) / 1000
	return steadyMs, recoveryMs
}

func main() {
	fmt.Println("heartbeat failure detector tuning (FD algorithm, n=3, heartbeats every 5ms)")
	fmt.Println()
	fmt.Printf("%-10s  %-22s  %s\n", "timeout", "steady latency (mean)", "crash recovery (probe)")
	for _, timeout := range []time.Duration{
		8 * time.Millisecond,
		15 * time.Millisecond,
		30 * time.Millisecond,
		60 * time.Millisecond,
		120 * time.Millisecond,
	} {
		steadyMs, recoveryMs := measure(timeout)
		fmt.Printf("%-10s  %15.2f ms      %17.2f ms\n", timeout, steadyMs, recoveryMs)
	}
	fmt.Println()
	fmt.Println("short timeouts inflate steady-state latency (wrong suspicions burn consensus")
	fmt.Println("rounds) but recover from the crash quickly; long timeouts are the opposite.")
	fmt.Println("The paper abstracts exactly this trade-off into TD, TMR and TM (§6.2).")
}
