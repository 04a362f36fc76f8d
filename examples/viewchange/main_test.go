package main

// Example runs the walkthrough; go test compares what it prints with
// the Output block, so the narration cannot drift from the numbers.
func Example() {
	main()
	// Output:
	// group membership timeline, n=4 (sequencer = first member)
	//
	//       0.00ms  p1 enters view 1, members [0 1 2 3]
	// t=100ms: p3 crashes (detected after TD=15ms, then excluded)
	// t=250ms: p0 wrongly suspects p2 for 60ms (p2 is excluded, then rejoins)
	//
	//     134.00ms  p1 enters view 2, members [0 1 2]
	//     269.00ms  p1 enters view 3, members [0 1]
	//     289.00ms  p1 enters view 4, members [0 1]
	//     305.00ms  p1 enters view 5, members [0 1]
	//     321.00ms  p1 enters view 6, members [0 1]
	//     336.00ms  p1 enters view 7, members [0 1 2]
	//
	// note: the crashed p3 never returns; the wrongly excluded p2 rejoined
	// through a join view change plus state transfer, as in the paper's §4.3.
	// views 4-6 change nothing: p1 retries p2's join while p0 still suspects p2.
}
