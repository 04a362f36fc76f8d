// Quickstart: run the Chandra–Toueg atomic broadcast (the paper's FD
// algorithm) on a simulated 3-process cluster, broadcast 100 messages and
// print the latency statistics plus a total-order check.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"time"

	"repro"
)

func main() {
	// Collect the delivery sequence of every process.
	sequences := make([][]repro.MessageID, 3)
	var latencies []time.Duration
	// Send times by body (every body is unique), dropped at the first
	// delivery.
	sent := make(map[string]time.Duration)

	cluster := repro.NewCluster(repro.ClusterConfig{
		Algorithm: repro.FD, // try repro.GM for the sequencer algorithm
		N:         3,
		OnDeliver: func(d repro.Delivery) {
			sequences[d.Process] = append(sequences[d.Process], d.ID)
			body := d.Body.(string)
			if t0, first := sent[body]; first {
				delete(sent, body)
				latencies = append(latencies, d.At-t0)
			}
		},
	})

	// 100 broadcasts from rotating senders, one every 5 ms of virtual
	// time. Virtual time only advances inside Run.
	for i := 0; i < 100; i++ {
		at := time.Duration(i) * 5 * time.Millisecond
		body := fmt.Sprintf("update-%03d", i)
		sent[body] = at
		cluster.BroadcastAt(i%3, at, body)
	}
	cluster.RunUntilIdle()

	// Every process must have delivered the same sequence.
	for p := 1; p < 3; p++ {
		if len(sequences[p]) != len(sequences[0]) {
			panic("delivery counts differ")
		}
		for i := range sequences[p] {
			if sequences[p][i] != sequences[0][i] {
				panic("total order violated")
			}
		}
	}

	var sum time.Duration
	min, max := latencies[0], latencies[0]
	for _, l := range latencies {
		sum += l
		if l < min {
			min = l
		}
		if l > max {
			max = l
		}
	}
	fmt.Printf("delivered %d messages on all 3 processes, in one total order\n", len(sequences[0]))
	fmt.Printf("latency (A-broadcast to first A-delivery): mean %.2fms  min %.2fms  max %.2fms\n",
		float64(sum.Microseconds())/float64(len(latencies))/1000,
		float64(min.Microseconds())/1000, float64(max.Microseconds())/1000)
	fmt.Printf("network: %d wire messages for %d broadcasts\n",
		cluster.Stats().WireSlots, len(sequences[0]))
}
