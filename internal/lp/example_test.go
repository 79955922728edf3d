package lp_test

import (
	"fmt"

	"wideplace/internal/lp"
)

// Solve a small production-planning LP: maximize 3x + 5y subject to
// machine-hour limits.
func Example() {
	m := lp.NewModel(lp.Maximize)
	x := m.AddVar(0, lp.Inf, 3, "x")
	y := m.AddVar(0, lp.Inf, 5, "y")
	m.AddLE([]lp.Coef{{Var: x, Value: 1}}, 4, "plant1")
	m.AddLE([]lp.Coef{{Var: y, Value: 2}}, 12, "plant2")
	m.AddLE([]lp.Coef{{Var: x, Value: 3}, {Var: y, Value: 2}}, 18, "plant3")

	sol, err := lp.SolveModel(m, lp.Options{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("optimum %.0f at x=%.0f y=%.0f\n", sol.Objective, sol.X[x], sol.X[y])
	// Output: optimum 36 at x=2 y=6
}
