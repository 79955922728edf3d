package main

// Example runs the walkthrough as `go run` does and pins the class
// ranking it prints.
func Example() {
	main()
	// Output:
	// general lower bound (no heuristic can beat this): 899
	//
	// class                      bound        feasible     verdict
	// general                    899          903          <= pick a heuristic from this class
	// replica-constrained        1377         1503
	// coop-caching-prefetch      1478         1588
	// storage-constrained        1478         1587
	// decentral-local-routing    1491         1601
	// caching-prefetch           1491         1601
	// caching                    -            -            cannot meet the goal
	// coop-caching               -            -            cannot meet the goal
}
