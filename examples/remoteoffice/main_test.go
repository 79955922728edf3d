package main

// Example runs the walkthrough as `go run` does and pins the class
// ranking and deployed-heuristic costs it prints.
func Example() {
	main()
	// Output:
	// system: 10 sites, 24 objects, 6000 requests over 8h0m0s (web popularity)
	// goal:   90% of each user's reads within 150 ms
	//
	//   general                    bound      382
	//   replica-constrained        bound      564
	//   coop-caching-prefetch      bound      833
	//   storage-constrained        bound      833
	//   caching-prefetch           bound     1060
	//   decentral-local-routing    bound     1060
	//   caching                    infeasible at this goal
	//   coop-caching               infeasible at this goal
	//
	// chosen class: general (general bound 382)
	//
	// deployed greedy-global-prefetch(c=11) cost     1029 (param 11, min-node QoS 0.9069)
	// deployed lru-caching(c=21)            cost     1899 (cache 21 per node)
	//
	// savings from following the methodology: 1.8x
}
