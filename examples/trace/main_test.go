package main

// Example runs the walkthrough; go test compares what it prints with
// the Output block, so the narration cannot drift from the numbers.
func Example() {
	main()
	// Output:
	// Figure 1: one A-broadcast(m) by p0, failure-free, n=5, λ=1
	// (every line is one occupation of the shared network resource)
	//
	// FD algorithm (Chandra–Toueg: consensus on message batches)
	// ------------------------------------------------------------
	//     1.00ms  Msg                          p0 -> all
	//     2.00ms  MsgPropose[k=1]              p0 -> all
	//     5.00ms  MsgAck[k=1]                  p1 -> p0
	//     6.00ms  MsgAck[k=1]                  p2 -> p0
	//     7.00ms  MsgAck[k=1]                  p3 -> p0
	//     8.00ms  MsgAck[k=1]                  p4 -> p0
	//    10.00ms  MsgDecide[k=1]               p0 -> all
	//     8.00ms  A-deliver(m) at p0
	//    12.00ms  A-deliver(m) at p1
	//    12.00ms  A-deliver(m) at p2
	//    12.00ms  A-deliver(m) at p3
	//    12.00ms  A-deliver(m) at p4
	//
	// GM algorithm (fixed sequencer over group membership)
	// ----------------------------------------------------
	//     1.00ms  MsgData                      p0 -> all
	//     2.00ms  MsgSeqNum                    p0 -> all
	//     5.00ms  MsgAck                       p1 -> p0
	//     6.00ms  MsgAck                       p2 -> p0
	//     7.00ms  MsgAck                       p3 -> p0
	//     8.00ms  MsgAck                       p4 -> p0
	//    10.00ms  MsgDeliver                   p0 -> all
	//     8.00ms  A-deliver(m) at p0
	//    12.00ms  A-deliver(m) at p1
	//    12.00ms  A-deliver(m) at p2
	//    12.00ms  A-deliver(m) at p3
	//    12.00ms  A-deliver(m) at p4
	//
	// GM algorithm, non-uniform variant (§8: two multicasts)
	// -------------------------------------------------------
	//     1.00ms  MsgData                      p0 -> all
	//     2.00ms  MsgSeqNum                    p0 -> all
	//     0.00ms  A-deliver(m) at p0
	//     4.00ms  A-deliver(m) at p1
	//     4.00ms  A-deliver(m) at p2
	//     4.00ms  A-deliver(m) at p3
	//     4.00ms  A-deliver(m) at p4
}
