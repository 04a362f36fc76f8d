package main

// Example runs the walkthrough; go test compares what it prints with
// the Output block, so the narration cannot drift from the numbers.
func Example() {
	main()
	// Output:
	// heartbeat failure detector tuning (FD algorithm, n=3, heartbeats every 5ms)
	//
	// timeout     steady latency (mean)   crash recovery (probe)
	// 8ms                  450.03 ms                 317.00 ms
	// 15ms                  49.08 ms                  32.00 ms
	// 30ms                  49.08 ms                  47.00 ms
	// 60ms                  49.08 ms                  77.00 ms
	// 120ms                 49.08 ms                 137.00 ms
	//
	// short timeouts inflate steady-state latency (wrong suspicions burn consensus
	// rounds) but recover from the crash quickly; long timeouts are the opposite.
	// The paper abstracts exactly this trade-off into TD, TMR and TM (§6.2).
}
