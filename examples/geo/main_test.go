package main

// Example runs the walkthrough; go test compares what it prints with
// the Output block, so the narration cannot drift from the numbers.
func Example() {
	main()
	// Output:
	// act 1: 9 processes, full mesh vs geo-3x3 (4 WAN hops worst case)
	//   fullmesh  mean latency  16.18ms over 270 deliveries, 330 wire slots
	//   geo-3x3   mean latency  47.11ms over 270 deliveries, 744 wire slots
	//
	// act 2: WAN cut of site 2 (processes 6 7 8) from 300ms to 800ms
	//     300.00ms  fault: partition {6 7 8}|{0 1 2 3 4 5}
	//     800.00ms  fault: heal
	//   deliveries per process (majority sites keep running; site 2 catches up after the heal):
	//     site 0:  p0=40  p1=40  p2=40
	//     site 1:  p3=40  p4=40  p5=40
	//     site 2:  p6=40  p7=40  p8=40
	//   268 message copies lost to the WAN cut
}
