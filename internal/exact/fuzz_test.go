package exact

import (
	"errors"
	"testing"
)

// problemFromBytes decodes an arbitrary byte string into a valid Problem
// of at most 12 nodes. Every draw is integer-valued so the DP's slack
// chains and the brute force's distance sums agree exactly in floating
// point; byte exhaustion falls back to zero, which is always in range.
func problemFromBytes(data []byte) Problem {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	n := 2 + next()%11
	p := Problem{
		Parent:  make([]int, n),
		EdgeLat: make([]float64, n),
		Demand:  make([]float64, n),
		Bound:   float64(next() % 401),
		Policy:  Policy(next() % 3),
	}
	p.Parent[0] = -1
	for v := 1; v < n; v++ {
		p.Parent[v] = next() % v
		p.EdgeLat[v] = float64(next() % 201)
	}
	for v := 0; v < n; v++ {
		p.Demand[v] = float64(next() % 5)
	}
	if next()%4 == 0 {
		p.QoS = make([]float64, n)
		for v := range p.QoS {
			p.QoS[v] = float64(next() % 401)
		}
	}
	if p.Policy == PolicyClosest && next()%2 == 0 {
		p.Capacity = float64(1 + next()%12)
	}
	return p
}

// FuzzTreeDP cross-checks the DP against the brute-force enumerator on
// fuzzer-generated trees: equal optimal cost, agreement on infeasibility,
// and both witnesses surviving the independent check.
func FuzzTreeDP(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 150, 0, 0, 100, 0, 100, 1, 100, 0, 0, 0, 1})
	f.Add([]byte{7, 90, 1, 2, 60, 0, 30, 1, 45, 2, 80, 3, 10, 1, 2, 0, 4, 3, 1, 0, 2})
	f.Add([]byte{10, 200, 2, 0, 50, 1, 50, 1, 100, 2, 0, 3, 25, 4, 75, 1, 1, 1, 1, 1, 1, 1, 1, 3, 0, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := problemFromBytes(data)
		dp, errDP := Solve(p)
		bf, errBF := BruteForce(p)
		switch {
		case errDP != nil && errBF != nil:
			if !errors.Is(errDP, ErrInfeasible) || !errors.Is(errBF, ErrInfeasible) {
				t.Fatalf("unexpected errors on a generated problem: dp=%v brute=%v\nproblem: %+v", errDP, errBF, p)
			}
		case errDP != nil || errBF != nil:
			t.Fatalf("solvers disagree on feasibility: dp=%v brute=%v\nproblem: %+v", errDP, errBF, p)
		default:
			if dp.Cost != bf.Cost {
				t.Fatalf("dp cost %g != brute cost %g\ndp: %v\nbrute: %v\nproblem: %+v",
					dp.Cost, bf.Cost, dp.Replicas, bf.Replicas, p)
			}
			if err := p.check(dp); err != nil {
				t.Fatalf("dp witness fails check: %v\nproblem: %+v", err, p)
			}
			if err := p.check(bf); err != nil {
				t.Fatalf("brute witness fails check: %v\nproblem: %+v", err, p)
			}
		}
	})
}
