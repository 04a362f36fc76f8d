// Replicated service: the paper's motivating application (§5.1). A
// key-value store is actively replicated over atomic broadcast: clients
// send commands with A-broadcast, every replica applies them in delivery
// order, and the response time tracks the latency of the first delivery —
// the exact argument the paper uses to justify its latency metric.
//
// The run crashes one replica mid-way and injects a wrong suspicion to
// show that neither event disturbs consistency.
//
//	go run ./examples/replicated-service
package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro"
)

// command is a state-machine operation shipped through atomic broadcast.
type command struct {
	Op    string // "put" or "del"
	Key   string
	Value string
}

// store is one replica's state machine.
type store struct {
	data    map[string]string
	applied int
}

func (s *store) apply(c command) {
	switch c.Op {
	case "put":
		s.data[c.Key] = c.Value
	case "del":
		delete(s.data, c.Key)
	}
	s.applied++
}

// digest summarises the state for convergence checks.
func (s *store) digest() string {
	keys := make([]string, 0, len(s.data))
	for k := range s.data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%s;", k, s.data[k])
	}
	return b.String()
}

func main() {
	const n = 5
	replicas := make([]*store, n)
	for i := range replicas {
		replicas[i] = &store{data: make(map[string]string)}
	}

	var responseTimes []time.Duration
	// Send times by command (every command is unique), dropped at the
	// first reply.
	sentAt := make(map[command]time.Duration)

	cluster := repro.NewCluster(repro.ClusterConfig{
		Algorithm: repro.GM, // uniform sequencer over group membership
		N:         n,
		QoS:       repro.Detectors(10, 0, 0), // 10 ms crash detection
		OnDeliver: func(d repro.Delivery) {
			cmd := d.Body.(command)
			replicas[d.Process].apply(cmd)
			// The client's response time is the first replica's reply
			// (all replies are identical; the client keeps the first).
			if t0, first := sentAt[cmd]; first {
				delete(sentAt, cmd)
				responseTimes = append(responseTimes, d.At-t0)
			}
		},
	})

	// Client workload: 200 commands, issued through changing replicas.
	keys := []string{"alpha", "beta", "gamma", "delta"}
	for i := 0; i < 200; i++ {
		at := time.Duration(i) * 3 * time.Millisecond
		cmd := command{Op: "put", Key: keys[i%len(keys)], Value: fmt.Sprintf("v%d", i)}
		sentAt[cmd] = at
		cluster.BroadcastAt(i%n, at, cmd)
	}

	// Mid-run faults: replica 4 crashes for real; replica 2 is wrongly
	// suspected for 40 ms (it gets excluded and rejoins with a state
	// transfer).
	cluster.CrashAt(4, 150*time.Millisecond)
	cluster.SuspectAt(0, 2, 300*time.Millisecond, 40*time.Millisecond)

	cluster.Run(5 * time.Second)

	// Convergence: all correct replicas hold the same state and applied
	// the same number of commands.
	ref := -1
	for p := 0; p < n; p++ {
		if !cluster.Crashed(p) {
			ref = p
			break
		}
	}
	for p := 0; p < n; p++ {
		if cluster.Crashed(p) {
			continue
		}
		if replicas[p].digest() != replicas[ref].digest() {
			panic(fmt.Sprintf("replica %d diverged", p))
		}
	}

	var sum time.Duration
	for _, rt := range responseTimes {
		sum += rt
	}
	fmt.Printf("replicated KV store over uniform atomic broadcast (GM algorithm), n=%d\n", n)
	fmt.Printf("  commands applied per correct replica: %d\n", replicas[ref].applied)
	fmt.Printf("  final state: %s\n", replicas[ref].digest())
	fmt.Printf("  mean client response time: %.2f ms over %d commands\n",
		float64(sum.Microseconds())/float64(len(responseTimes))/1000, len(responseTimes))
	fmt.Printf("  replica 4 crashed at 150ms; replica 2 was wrongly excluded and rejoined\n")
	fmt.Printf("  all correct replicas converged: OK\n  (commands issued through the crashed replica after its crash are lost client-side)\n")
}
