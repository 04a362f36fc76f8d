package main

// Example runs the walkthrough; go test compares what it prints with
// the Output block, so the narration cannot drift from the numbers.
func Example() {
	main()
	// Output:
	// Suspicion-steady, GM, n=3, T=100/s, TMR=200ms, TM=0
	//   mean over replications: 18.927 ± 1.738 (n=3) ms
	//   quantiles (measured window): P50=17.63  P90=29.34  P99=39.97 ms  (n=1232)
	//   split at 35.3 ms: 1198 early (mean 18.34), 34 late (mean 40.13)
	//   histogram:
	//        4.9 ms #### 137
	//       14.7 ms ################### 602
	//       24.4 ms ########### 369
	//       34.2 ms ### 109
	//       44.0 ms  12
	//       53.8 ms  3
	//       63.6 ms  0
	//       73.3 ms  0
	//       83.1 ms  0
	//       92.9 ms  0
	//      102.7 ms  0
	//      112.5 ms  0
	//   trace: 1545296 bytes, 3 replications, 3 replay digests match
}
