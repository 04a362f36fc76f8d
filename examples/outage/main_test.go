package main

// Example runs the walkthrough; go test compares what it prints with
// the Output block, so the narration cannot drift from the numbers.
func Example() {
	main()
	// Output:
	// long outage, n=3: crash p2 at 200ms, recover at 2.5s, 120 messages in between
	//     200.00ms  fault: crash p2
	//   just before recovery: deliveries p0=120 p1=120 p2=0 — p2 is 120 messages behind
	//    2500.00ms  fault: recover p2
	//    2604.00ms  p2 -> p0  CatchUpReq[from=1]
	//    2608.00ms  p0 -> p2  CatchUpReply[1..122]
	//   after catch-up:       deliveries p0=126 p1=126 p2=126
	//   catch-up traffic: 1 requests, 1 suffix replies
	//   -> p2 delivered all 126 messages: the whole outage suffix arrived through the
	//      decision log, then live ordering took over - no wedge, nothing lost.
}
