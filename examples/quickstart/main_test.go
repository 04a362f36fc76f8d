package main

// Example runs the walkthrough; go test compares what it prints with
// the Output block, so the narration cannot drift from the numbers.
func Example() {
	main()
	// Output:
	// delivered 100 messages on all 3 processes, in one total order
	// latency (A-broadcast to first A-delivery): mean 15.70ms  min 7.00ms  max 21.00ms
	// network: 328 wire messages for 100 broadcasts
}
