package main

// Example runs the walkthrough; go test compares what it prints with
// the Output block, so the narration cannot drift from the numbers.
func Example() {
	main()
	// Output:
	// replicated KV store over uniform atomic broadcast (GM algorithm), n=5
	//   commands applied per correct replica: 170
	//   final state: alpha=v196;beta=v197;delta=v195;gamma=v198;
	//   mean client response time: 20.44 ms over 170 commands
	//   replica 4 crashed at 150ms; replica 2 was wrongly excluded and rejoined
	//   all correct replicas converged: OK
	//   (commands issued through the crashed replica after its crash are lost client-side)
}
