package main

// Example runs the walkthrough; go test compares what it prints with
// the Output block, so the narration cannot drift from the numbers.
func Example() {
	main()
	// Output:
	// overload while partitioned, n=5 at 200 msgs/s total:
	//   {0 1 2}|{3 4} split 400..900ms; 5x burst 600..1200ms; mute p1 1400..1700ms
	//
	// === FD algorithm ===
	//     400.00ms  fault: partition {0 1 2}|{3 4}
	//     600.00ms  load:  burst all x5 for 600ms
	//     900.00ms  fault: heal
	//    1400.00ms  load:  mute p1
	//    1700.00ms  load:  unmute p1
	//    2000.00ms  load:  pause
	//   deliveries at p0, by sender: p0=168 p1=150 p2=167 p3=103 p4=103 (total 691)
	//   copies lost to the partition: 881
	//   -> FD: the majority absorbed the burst mid-partition; the minority's
	//      partition-era messages are lost, burst included.
	//
	// === GM algorithm ===
	//     400.00ms  fault: partition {0 1 2}|{3 4}
	//     600.00ms  load:  burst all x5 for 600ms
	//     900.00ms  fault: heal
	//    1400.00ms  load:  mute p1
	//    1700.00ms  load:  unmute p1
	//    2000.00ms  load:  pause
	//   deliveries at p0, by sender: p0=168 p1=150 p2=167 p3=174 p4=165 (total 824)
	//   copies lost to the partition: 854
	//   -> GM: the minority rejoined with state transfer and re-announced its
	//      burst-era backlog - everything lands, the tail just stretches.
	//
	// sweep form: repro.RunSweep(repro.Sweep{Plans: {nil, faults}, Loads: {nil, load}, ...})
}
