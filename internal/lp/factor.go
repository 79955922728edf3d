package lp

import "fmt"

// basisSwap records one in-factorization repair: the column old left basis
// position pos and a slack took its place (readable from basis[pos] after
// the call).
type basisSwap struct {
	pos int
	old int
}

// singularBasisError is how a Factor call reports a linearly dependent
// basis: the basic column at position pos could not be pivoted, and row is
// a constraint row no basic column had pivoted when the elimination
// stalled. It unwraps to ErrNumerical so callers that only classify the
// failure keep working.
type singularBasisError struct {
	pos int
	row int
}

func (e *singularBasisError) Error() string {
	return fmt.Sprintf("%v: singular basis: column at position %d is dependent (row %d unpivoted)", ErrNumerical, e.pos, e.row)
}

func (e *singularBasisError) Unwrap() error { return ErrNumerical }

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
