package main

// Example runs the walkthrough as `go run` does and pins the two-phase
// deployment report it prints.
func Example() {
	main()
	// Output:
	// phase 1: deploy servers at 4 of 10 sites: [0 4 8 9] (opening cost 500 each)
	//
	// phase 2 bounds at 85% QoS on the 4-node topology:
	//   storage-constrained        bound      346 (feasible      368)
	//   reactive                   bound      408 (feasible      412)
	//   replica-constrained        bound      526 (feasible      658)
	//   caching                    bound      531 (feasible      553)
	//   coop-caching               bound      531 (feasible      553)
	//
	// chosen class: storage-constrained
	// the chosen class is close to the general bound: no class can be much better
}
