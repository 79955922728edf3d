package topology

import (
	"math"
	"testing"
	"testing/quick"
)

func line3() *Topology {
	// 0 --100-- 1 --100-- 2
	t, err := New(3, []Link{{0, 1, 100}, {1, 2, 100}}, 0)
	if err != nil {
		panic(err)
	}
	return t
}

func TestShortestPaths(t *testing.T) {
	tp := line3()
	want := [][]float64{
		{0, 100, 200},
		{100, 0, 100},
		{200, 100, 0},
	}
	for i := range want {
		for j := range want[i] {
			if tp.Latency[i][j] != want[i][j] {
				t.Errorf("Latency[%d][%d] = %g, want %g", i, j, tp.Latency[i][j], want[i][j])
			}
		}
	}
}

func TestShortestPathPrefersCheaperRoute(t *testing.T) {
	// Direct 0-2 link costs 500 but the 0-1-2 path costs 200.
	tp, err := New(3, []Link{{0, 1, 100}, {1, 2, 100}, {0, 2, 500}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tp.Latency[0][2] != 200 {
		t.Errorf("Latency[0][2] = %g, want 200 via node 1", tp.Latency[0][2])
	}
}

func TestDisconnected(t *testing.T) {
	if _, err := New(3, []Link{{0, 1, 100}}, 0); err == nil {
		t.Error("disconnected graph accepted")
	}
}

func TestValidation(t *testing.T) {
	if _, err := New(2, []Link{{0, 5, 100}}, 0); err == nil {
		t.Error("out-of-range link accepted")
	}
	if _, err := New(2, []Link{{0, 1, -5}}, 0); err == nil {
		t.Error("negative latency accepted")
	}
	if _, err := New(2, []Link{{0, 1, 100}}, 7); err == nil {
		t.Error("out-of-range origin accepted")
	}
	if _, err := New(0, nil, 0); err == nil {
		t.Error("empty topology accepted")
	}
	if _, err := New(MaxNodes+1, nil, 0); err == nil {
		t.Errorf("%d nodes accepted", MaxNodes+1)
	}
	if _, err := NewFromMatrix(make([][]float64, MaxNodes+1), 0); err == nil {
		t.Errorf("%d-row latency matrix accepted", MaxNodes+1)
	}
}

func TestDistMatrix(t *testing.T) {
	tp := line3()
	d := tp.Dist(150)
	wantTrue := [][2]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {1, 2}, {2, 1}, {2, 2}}
	got := CountTrue(d)
	if got != len(wantTrue) {
		t.Errorf("CountTrue = %d, want %d", got, len(wantTrue))
	}
	for _, p := range wantTrue {
		if !d[p[0]][p[1]] {
			t.Errorf("Dist[%d][%d] = false, want true", p[0], p[1])
		}
	}
	if d[0][2] {
		t.Error("Dist[0][2] = true at threshold 150, want false (latency 200)")
	}
}

func TestSelfAlwaysReachable(t *testing.T) {
	tp := line3()
	d := tp.Dist(0)
	for n := 0; n < tp.N; n++ {
		if !d[n][n] {
			t.Errorf("node %d cannot reach itself at threshold 0", n)
		}
	}
}

func TestGenerateProperties(t *testing.T) {
	tp, err := Generate(GenOptions{N: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tp.N != 20 {
		t.Fatalf("N = %d, want 20", tp.N)
	}
	for _, l := range tp.Links {
		if l.Latency < 100 || l.Latency >= 200 {
			t.Errorf("hop latency %g outside [100, 200)", l.Latency)
		}
	}
	// Deterministic: same seed, same topology.
	tp2, err := Generate(GenOptions{N: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range tp.Latency {
		for j := range tp.Latency[i] {
			if tp.Latency[i][j] != tp2.Latency[i][j] {
				t.Fatalf("Generate is not deterministic at [%d][%d]", i, j)
			}
		}
	}
	// Different seed, different topology (overwhelmingly likely).
	tp3, err := Generate(GenOptions{N: 20, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range tp.Latency {
		for j := range tp.Latency[i] {
			if tp.Latency[i][j] != tp3.Latency[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Error("different seeds produced identical topologies")
	}
}

func TestGenerateLatencySymmetricAndTriangle(t *testing.T) {
	check := func(seed uint64) bool {
		tp, err := Generate(GenOptions{N: 12, Seed: seed % 1000})
		if err != nil {
			return false
		}
		for i := 0; i < tp.N; i++ {
			if tp.Latency[i][i] != 0 {
				return false
			}
			for j := 0; j < tp.N; j++ {
				if tp.Latency[i][j] != tp.Latency[j][i] {
					return false
				}
				for k := 0; k < tp.N; k++ {
					if tp.Latency[i][j] > tp.Latency[i][k]+tp.Latency[k][j]+1e-9 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestClosest(t *testing.T) {
	tp := line3()
	if got := tp.Closest(2, []int{0, 1}); got != 1 {
		t.Errorf("Closest(2, {0,1}) = %d, want 1", got)
	}
	if got := tp.Closest(0, []int{0, 1, 2}); got != 0 {
		t.Errorf("Closest(0, all) = %d, want 0 (self)", got)
	}
}

func TestRestrict(t *testing.T) {
	tp := line3()
	sub, assign, err := tp.Restrict([]int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if sub.N != 2 {
		t.Fatalf("sub.N = %d, want 2", sub.N)
	}
	if sub.Latency[0][1] != 200 {
		t.Errorf("sub latency = %g, want 200", sub.Latency[0][1])
	}
	// Node 1 is equidistant from 0 and 2; ties break to the lower index.
	if assign[1] != 0 {
		t.Errorf("assign[1] = %d, want 0", assign[1])
	}
	if assign[0] != 0 || assign[2] != 2 {
		t.Errorf("open nodes not self-assigned: %v", assign)
	}
	if sub.Origin != 0 {
		t.Errorf("sub.Origin = %d, want 0", sub.Origin)
	}
}

func TestRestrictErrors(t *testing.T) {
	tp := line3()
	if _, _, err := tp.Restrict(nil); err == nil {
		t.Error("empty open set accepted")
	}
	if _, _, err := tp.Restrict([]int{1, 2}); err == nil {
		t.Error("restriction dropping the origin accepted")
	}
	if _, _, err := tp.Restrict([]int{0, 9}); err == nil {
		t.Error("out-of-range open node accepted")
	}
}

func TestFetchKnowMatrices(t *testing.T) {
	tp := line3()
	lf := tp.LocalPlusOrigin()
	for n := 0; n < 3; n++ {
		if !lf[n][n] || !lf[n][0] {
			t.Errorf("LocalPlusOrigin: node %d must reach itself and origin", n)
		}
	}
	if lf[2][1] {
		t.Error("LocalPlusOrigin: node 2 must not fetch from node 1")
	}

	cf := tp.CooperativeFetch(150)
	if !cf[2][1] {
		t.Error("CooperativeFetch: node 2 should fetch from neighbor 1")
	}
	if !cf[2][0] {
		t.Error("CooperativeFetch: origin always fetchable")
	}

	id := IdentityMatrix(3)
	if CountTrue(id) != 3 {
		t.Errorf("IdentityMatrix CountTrue = %d, want 3", CountTrue(id))
	}
	full := FullMatrix(3)
	if CountTrue(full) != 9 {
		t.Errorf("FullMatrix CountTrue = %d, want 9", CountTrue(full))
	}
}

func TestMaxLatency(t *testing.T) {
	tp := line3()
	if tp.MaxLatency() != 200 {
		t.Errorf("MaxLatency = %g, want 200", tp.MaxLatency())
	}
}

func TestGenerateSmallN(t *testing.T) {
	if _, err := Generate(GenOptions{N: 1}); err == nil {
		t.Error("N=1 accepted by Generate")
	}
	tp, err := Generate(GenOptions{N: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if tp.N != 2 || math.IsInf(tp.Latency[0][1], 1) {
		t.Error("N=2 generation broken")
	}
}

func TestGenerateRejectsBadHopRange(t *testing.T) {
	for _, opts := range []GenOptions{
		{N: 5, MinHop: 300, MaxHop: 100},
		{N: 5, MinHop: 300}, // inverted once MaxHop takes its default of 200
		{N: 5, MinHop: -10},
	} {
		if _, err := Generate(opts); err == nil {
			t.Errorf("Generate accepted hop range [%g, %g)", opts.MinHop, opts.MaxHop)
		}
	}
}
