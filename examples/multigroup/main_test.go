package main

// Example runs the walkthrough; go test compares what it prints with
// the Output block, so the narration cannot drift from the numbers.
func Example() {
	main()
	// Output:
	// act 1: 12 processes in 4 groups of 3; 90% shard-local, 10% cross-shard
	//   shard-local  mean latency 15.77ms over 180 messages (LAN-only ordering)
	//   cross-shard  mean latency 28.55ms over 20 messages (WAN + timestamp merge)
	//
	// act 2: group 1 (processes 3 4 5) cut off the WAN from 300ms to 800ms
	//   group 0:  28 deliveries during the cut, 144 after  <- multicast into the cut at 400ms, stalled behind it
	//   group 1: 124 deliveries during the cut,  48 after  <- cut off the WAN, still ordering its shard
	//   group 2: 126 deliveries during the cut,  47 after
	//   group 3: 126 deliveries during the cut,  47 after
	//   cross-shard message sent at 400ms into the cut delivered at 960ms (heal at 800ms)
}
