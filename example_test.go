package repro_test

import (
	"fmt"
	"time"

	"repro"
)

// ExampleNewCluster shows the smallest possible use of the interactive
// API: broadcast one message on a 3-process cluster and watch it arrive.
func ExampleNewCluster() {
	c := repro.NewCluster(repro.ClusterConfig{
		Algorithm: repro.FD,
		N:         3,
		OnDeliver: func(d repro.Delivery) {
			fmt.Printf("p%d delivered %v at %v\n", d.Process, d.Body, d.At)
		},
	})
	c.Broadcast(0, "hello")
	c.RunUntilIdle()
	// Output:
	// p0 delivered hello at 7ms
	// p1 delivered hello at 11ms
	// p2 delivered hello at 11ms
}

// ExampleRunSteady reproduces one point of the paper's Figure 4. With a
// fixed seed the result is fully deterministic.
func ExampleRunSteady() {
	res := repro.RunSteady(repro.Config{
		Algorithm:    repro.GM,
		N:            3,
		Throughput:   100,
		Seed:         1,
		Warmup:       time.Second,
		Measure:      5 * time.Second,
		Replications: 2,
	})
	fmt.Printf("stable=%v messages=%d\n", res.Stable, res.Messages)
	fmt.Printf("min latency >= 7ms: %v\n", res.PerMessage.Min >= 7)
	// Output:
	// stable=true messages=1055
	// min latency >= 7ms: true
}

// ExampleCluster_SuspectAt injects a wrong suspicion into a GM cluster
// and observes the membership reacting: exclusion, then rejoin.
func ExampleCluster_SuspectAt() {
	var first, last repro.ViewInfo
	c := repro.NewCluster(repro.ClusterConfig{
		Algorithm: repro.GM,
		N:         3,
		OnView: func(v repro.ViewInfo) {
			if v.Process != 1 {
				return
			}
			if first.ViewID == 0 {
				first = v
			}
			last = v
		},
	})
	c.SuspectAt(0, 2, 10*time.Millisecond, 50*time.Millisecond)
	c.Run(2 * time.Second)
	fmt.Printf("first view: %d members\n", len(first.Members))
	fmt.Printf("final view: %d members (p2 excluded and rejoined)\n", len(last.Members))
	// Output:
	// first view: 3 members
	// final view: 3 members (p2 excluded and rejoined)
}

// ExampleRunner_Transient measures the crash-transient scenario: the
// latency of a message broadcast at the very instant the coordinator
// crashes.
func ExampleRunner_Transient() {
	var r repro.Runner
	res := r.Transient(repro.TransientConfig{
		Config: repro.Config{
			Algorithm:    repro.FD,
			N:            3,
			Throughput:   50,
			QoS:          repro.Detectors(10, 0, 0), // TD = 10ms
			Seed:         1,
			Warmup:       time.Second,
			Replications: 3,
		},
		Crash:  0, // the coordinator
		Sender: 1,
	})
	fmt.Printf("lost=%d\n", res.Lost)
	fmt.Printf("latency exceeds detection time: %v\n", res.Latency.Mean > 10)
	// Output:
	// lost=0
	// latency exceeds detection time: true
}
