package workload

import (
	"errors"
	"sort"
	"testing"
	"time"
)

// The evaluation-interval rules of paper Sec. 4.3 and Appendix B, kept as
// test-side reproductions: no command applies them.
//
// Theorem 2: a lower bound computed with evaluation interval delta is also a
// lower bound for any interval delta' with delta' >= 2*delta or
// delta' == delta.
//
// Theorem 3: for heuristics evaluated at every access, the bound can be
// computed with delta = m1/2 where m1 is the smallest positive inter-access
// time between interacting nodes — or delta = m1 when no inter-access time
// falls in (m1, 2*m1).

// boundAppliesTo reports whether a lower bound computed with interval delta
// is valid for a heuristic whose evaluation interval is deltaPrime
// (Theorem 2).
func boundAppliesTo(delta, deltaPrime time.Duration) bool {
	return deltaPrime == delta || deltaPrime >= 2*delta
}

// perAccessInterval returns the evaluation interval to use when bounding
// heuristics that are evaluated after every single access (Theorem 3).
// interacts[n][m] must be true when node n's placement or accesses can be
// affected by node m (the matrix A of Lemma 1: dist OR know).
func perAccessInterval(t *Trace, interacts [][]bool) (time.Duration, error) {
	if len(interacts) != t.NumNodes {
		return 0, errors.New("workload: interaction matrix size mismatch")
	}
	// Collect, per node n, the time-sorted accesses of its sphere of
	// knowledge, and find the two smallest distinct positive gaps overall.
	m1, m2 := time.Duration(-1), time.Duration(-1)
	consider := func(gap time.Duration) {
		if gap <= 0 {
			return
		}
		switch {
		case m1 < 0 || gap < m1:
			if m1 > 0 && m1 != gap {
				m2 = m1
			}
			m1 = gap
		case gap != m1 && (m2 < 0 || gap < m2):
			m2 = gap
		}
	}
	times := make([]time.Duration, 0, len(t.Accesses))
	for n := 0; n < t.NumNodes; n++ {
		times = times[:0]
		for _, a := range t.Accesses {
			if interacts[n][a.Node] {
				times = append(times, a.At)
			}
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		for i := 1; i < len(times); i++ {
			consider(times[i] - times[i-1])
		}
	}
	if m1 <= 0 {
		return 0, errors.New("workload: no positive inter-access time found")
	}
	if m2 > 0 && m2 < 2*m1 {
		return m1 / 2, nil
	}
	return m1, nil
}

func TestBoundAppliesTo(t *testing.T) {
	d := time.Hour
	cases := []struct {
		prime time.Duration
		want  bool
	}{
		{time.Hour, true},
		{2 * time.Hour, true},
		{3 * time.Hour, true},
		{90 * time.Minute, false},
		{30 * time.Minute, false},
	}
	for _, c := range cases {
		if got := boundAppliesTo(d, c.prime); got != c.want {
			t.Errorf("boundAppliesTo(1h, %v) = %v, want %v", c.prime, got, c.want)
		}
	}
}

func TestPerAccessInterval(t *testing.T) {
	// Two nodes, fully interacting. Gaps: 10m (between 0m and 10m) and 25m.
	// m1 = 10m, m2 = 25m >= 2*m1, so delta = m1.
	tr := &Trace{
		Accesses: []Access{
			{At: 0, Node: 0},
			{At: 10 * time.Minute, Node: 1},
			{At: 35 * time.Minute, Node: 0},
		},
		NumNodes: 2, NumObjects: 1, Duration: time.Hour,
	}
	full := [][]bool{{true, true}, {true, true}}
	d, err := perAccessInterval(tr, full)
	if err != nil {
		t.Fatal(err)
	}
	if d != 10*time.Minute {
		t.Errorf("delta = %v, want 10m (m2 >= 2*m1)", d)
	}

	// Add an access creating a 15m gap: m1 = 10m, m2 = 15m < 2*m1 -> m1/2.
	tr2 := &Trace{
		Accesses: []Access{
			{At: 0, Node: 0},
			{At: 10 * time.Minute, Node: 1},
			{At: 25 * time.Minute, Node: 0},
		},
		NumNodes: 2, NumObjects: 1, Duration: time.Hour,
	}
	d, err = perAccessInterval(tr2, full)
	if err != nil {
		t.Fatal(err)
	}
	if d != 5*time.Minute {
		t.Errorf("delta = %v, want 5m (m2 < 2*m1)", d)
	}
}

func TestPerAccessIntervalRespectsSphere(t *testing.T) {
	// Nodes do not interact: each node sees only its own accesses, so the
	// 1-minute cross-node gap must be ignored.
	tr := &Trace{
		Accesses: []Access{
			{At: 0, Node: 0},
			{At: time.Minute, Node: 1},
			{At: 30 * time.Minute, Node: 0},
			{At: 61 * time.Minute, Node: 1},
		},
		NumNodes: 2, NumObjects: 1, Duration: 2 * time.Hour,
	}
	local := [][]bool{{true, false}, {false, true}}
	d, err := perAccessInterval(tr, local)
	if err != nil {
		t.Fatal(err)
	}
	// m1 = 30m (node 0), m2 = 60m (node 1). Since m2 >= 2*m1, delta = m1.
	// The 1-minute cross-node gap must not shrink it.
	if d != 30*time.Minute {
		t.Errorf("delta = %v, want 30m (cross-node gap ignored)", d)
	}
}

func TestPerAccessIntervalErrors(t *testing.T) {
	tr := &Trace{Accesses: []Access{{At: 0}}, NumNodes: 1, NumObjects: 1, Duration: time.Hour}
	if _, err := perAccessInterval(tr, [][]bool{{true}}); err == nil {
		t.Error("single access should yield no gap and an error")
	}
	if _, err := perAccessInterval(tr, nil); err == nil {
		t.Error("matrix size mismatch accepted")
	}
}
