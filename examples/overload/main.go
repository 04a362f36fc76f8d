// LoadPlan walkthrough: the same cluster driven through a shaped
// workload — a burst that lands while the network is partitioned, then a
// per-sender mute — with every load and fault event observed as it
// applies. The built-in Poisson workload is the paper's (§5.1): every
// process sends at Throughput/N, and LoadPlan events re-shape it
// mid-run without consuming randomness, so the run stays deterministic.
//
//	go run ./examples/overload
package main

import (
	"fmt"
	"time"

	"repro"
)

func main() {
	const n = 5
	const throughput = 200.0 // total msgs/s, 40 per process

	// Faults: a majority/minority split from 400ms to 900ms.
	faults := repro.NewFaultPlan().
		Partition(400*time.Millisecond, []repro.ProcessID{0, 1, 2}, []repro.ProcessID{3, 4}).
		Heal(900 * time.Millisecond)

	// Load: a 5x burst that opens while the network is still split and
	// outlives the heal, then a mute of sender 1 — and a final pause so
	// the run can drain to idle.
	load := repro.NewLoadPlan().
		Burst(600*time.Millisecond, 600*time.Millisecond, repro.AllSenders, 5).
		Mute(1400*time.Millisecond, 1).
		Unmute(1700*time.Millisecond, 1).
		Pause(2 * time.Second)

	fmt.Printf("overload while partitioned, n=%d at %.0f msgs/s total:\n", n, throughput)
	fmt.Println("  {0 1 2}|{3 4} split 400..900ms; 5x burst 600..1200ms; mute p1 1400..1700ms")
	for _, alg := range []repro.Algorithm{repro.FD, repro.GM} {
		fmt.Printf("\n=== %v algorithm ===\n", alg)
		perSender := make(map[int]int, n)
		c := repro.NewCluster(repro.ClusterConfig{
			Algorithm:  alg,
			N:          n,
			QoS:        repro.Detectors(10, 0, 0), // TD = 10 ms
			Throughput: throughput,
			Plan:       faults,
			Load:       load,
			OnDeliver: func(d repro.Delivery) {
				if d.Process == 0 { // count once, at p0
					perSender[int(d.ID.Origin)]++
				}
			},
			OnFault: func(at time.Duration, ev repro.PlanEvent) {
				fmt.Printf("  %8.2fms  fault: %v\n", ms(at), ev)
			},
			OnLoad: func(at time.Duration, ev repro.LoadEvent) {
				fmt.Printf("  %8.2fms  load:  %v\n", ms(at), ev)
			},
		})

		// The plan's final Pause silences the workload at 2s; run past it,
		// then drain. The drain is a bounded Run, not RunUntilIdle: under
		// FD the process partitioned away never finishes decision-log
		// catch-up (bodies of nil-body workload messages are never stashed)
		// and polls about once a second forever, so the cluster never goes
		// idle — wedge #4 of ROADMAP.md's oracle item. Ten more seconds is
		// long after everything that will be delivered has been.
		c.Run(2 * time.Second)
		c.Run(10 * time.Second)

		total := 0
		fmt.Print("  deliveries at p0, by sender:")
		for s := 0; s < n; s++ {
			fmt.Printf(" p%d=%d", s, perSender[s])
			total += perSender[s]
		}
		fmt.Printf(" (total %d)\n", total)
		fmt.Printf("  copies lost to the partition: %d\n", c.Stats().Lost)
		switch alg {
		case repro.FD:
			fmt.Println("  -> FD: the majority absorbed the burst mid-partition; the minority's")
			fmt.Println("     partition-era messages are lost, burst included.")
		default:
			fmt.Println("  -> GM: the minority rejoined with state transfer and re-announced its")
			fmt.Println("     burst-era backlog - everything lands, the tail just stretches.")
		}
	}

	// The same scenario as data: one Sweep crossing both plans with both
	// algorithms is the batch form (see cmd/figures -fig overload).
	fmt.Println("\nsweep form: Runner.Sweep(repro.Sweep{Plans: {nil, faults}, Loads: {nil, load}, ...})")
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
