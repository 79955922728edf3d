// Package lp implements linear programming for the MC-PERF bound pipeline.
//
// The package is a from-scratch substitute for the commercial LP solver
// (CPLEX) used in the paper. It provides:
//
//   - A Model builder API for assembling LPs with bounded variables and
//     range constraints (lo <= a*x <= hi).
//   - A bounded-variable primal revised simplex solver with a two-phase
//     start, devex pricing with a Bland anti-cycling fallback, bound flips
//     and a dual-simplex pass for warm restarts.
//   - One basis factorization: a sparse LU with threshold pivoting for the
//     very sparse 0/±1 systems produced by the MC-PERF formulation, kept
//     current between refactorizations by Forrest-Tomlin updates.
//   - A light presolve pass (empty/fixed column and row elimination).
//
// All MC-PERF matrices have entries in {-1, 0, +1} plus small integer
// demand weights, so the numerics are benign; tolerances are nevertheless
// configurable through Options.
package lp
