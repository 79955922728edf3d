package workload

import (
	"testing"
	"testing/quick"
	"time"
)

func TestBucketBasics(t *testing.T) {
	tr := &Trace{
		Accesses: []Access{
			{At: 0, Node: 0, Object: 0},
			{At: 30 * time.Minute, Node: 0, Object: 1},
			{At: 90 * time.Minute, Node: 1, Object: 0},
			{At: 100 * time.Minute, Node: 1, Object: 0, Write: true},
		},
		NumNodes: 2, NumObjects: 2, Duration: 2 * time.Hour,
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	c, err := tr.Bucket(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if c.Intervals != 2 {
		t.Fatalf("Intervals = %d, want 2", c.Intervals)
	}
	if c.Reads[0][0][0] != 1 || c.Reads[0][0][1] != 1 {
		t.Errorf("interval 0 reads wrong: %v", c.Reads[0][0])
	}
	if c.Reads[1][1][0] != 1 {
		t.Errorf("interval 1 node 1 reads wrong: %v", c.Reads[1][1])
	}
	if c.Writes[1][1][0] != 1 {
		t.Errorf("write not bucketed: %v", c.Writes[1][1])
	}
}

func TestBucketRemainderInterval(t *testing.T) {
	tr := &Trace{
		Accesses:   []Access{{At: 89 * time.Minute, Node: 0, Object: 0}},
		NumNodes:   1,
		NumObjects: 1,
		Duration:   90 * time.Minute,
	}
	c, err := tr.Bucket(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if c.Intervals != 2 {
		t.Fatalf("Intervals = %d, want 2 (60m + 30m remainder)", c.Intervals)
	}
	if c.Reads[0][1][0] != 1 {
		t.Error("access in the remainder interval lost")
	}
}

func TestBucketRejectsBadDelta(t *testing.T) {
	tr := &Trace{NumNodes: 1, NumObjects: 1, Duration: time.Hour}
	if _, err := tr.Bucket(0); err == nil {
		t.Error("zero interval accepted")
	}
}

func TestValidateRejects(t *testing.T) {
	base := Trace{NumNodes: 2, NumObjects: 2, Duration: time.Hour}

	tr := base
	tr.Accesses = []Access{{At: 10 * time.Minute}, {At: 5 * time.Minute}}
	if err := tr.Validate(); err == nil {
		t.Error("out-of-order trace accepted")
	}
	tr = base
	tr.Accesses = []Access{{Node: 5}}
	if err := tr.Validate(); err == nil {
		t.Error("out-of-range node accepted")
	}
	tr = base
	tr.Accesses = []Access{{Object: 9}}
	if err := tr.Validate(); err == nil {
		t.Error("out-of-range object accepted")
	}
	tr = base
	tr.Accesses = []Access{{At: 2 * time.Hour}}
	if err := tr.Validate(); err == nil {
		t.Error("access beyond duration accepted")
	}
}

func TestGenerateWebShape(t *testing.T) {
	tr, err := GenerateWeb(WebOptions{Nodes: 10, Objects: 200, Requests: 50_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Accesses) != 50_000 {
		t.Fatalf("requests = %d, want 50000", len(tr.Accesses))
	}
	s := Describe(tr)
	// Zipf s=1: the hottest object should take roughly 1/H(200) ~ 17% of
	// requests; require a clearly heavy head and a cold tail.
	if s.HottestCount < len(tr.Accesses)/10 {
		t.Errorf("hottest object has %d accesses, want heavy head (>=10%% of %d)", s.HottestCount, len(tr.Accesses))
	}
	if s.ColdestCount > s.HottestCount/50 {
		t.Errorf("coldest %d vs hottest %d: tail not heavy", s.ColdestCount, s.HottestCount)
	}
}

func TestGenerateGroupShape(t *testing.T) {
	tr, err := GenerateGroup(GroupOptions{Nodes: 10, Objects: 100, Requests: 80_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	s := Describe(tr)
	// GROUP is near-uniform: hottest/coldest ratio stays near the
	// configured 36/8.5 ~ 4.2, certainly below 8.
	if s.ColdestCount == 0 || s.HottestCount/s.ColdestCount > 8 {
		t.Errorf("popularity ratio %d/%d too skewed for GROUP", s.HottestCount, s.ColdestCount)
	}
	if s.ActiveNodes != 10 {
		t.Errorf("ActiveNodes = %d, want all 10 active", s.ActiveNodes)
	}
}

func TestGenerateDeterminism(t *testing.T) {
	a, err := GenerateWeb(WebOptions{Nodes: 5, Objects: 50, Requests: 1000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateWeb(WebOptions{Nodes: 5, Objects: 50, Requests: 1000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Accesses {
		if a.Accesses[i] != b.Accesses[i] {
			t.Fatalf("access %d differs between identical seeds", i)
		}
	}
	c, err := GenerateWeb(WebOptions{Nodes: 5, Objects: 50, Requests: 1000, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Accesses {
		if a.Accesses[i] != c.Accesses[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := GenerateWeb(WebOptions{Nodes: -1}); err == nil {
		t.Error("negative nodes accepted")
	}
	if _, err := GenerateGroup(GroupOptions{MinPop: 10, MaxPop: 5}); err == nil {
		t.Error("MaxPop < MinPop accepted")
	}
}

func TestBucketPreservesTotals(t *testing.T) {
	check := func(seed uint64) bool {
		tr, err := GenerateWeb(WebOptions{Nodes: 4, Objects: 30, Requests: 500, Seed: seed})
		if err != nil {
			return false
		}
		c, err := tr.Bucket(37 * time.Minute)
		if err != nil {
			return false
		}
		total := 0
		for n := range c.Reads {
			for i := range c.Reads[n] {
				for _, v := range c.Reads[n][i] {
					total += v
				}
			}
		}
		return total == 500
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
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
		if got := BoundAppliesTo(d, c.prime); got != c.want {
			t.Errorf("BoundAppliesTo(1h, %v) = %v, want %v", c.prime, got, c.want)
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
	d, err := PerAccessInterval(tr, full)
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
	d, err = PerAccessInterval(tr2, full)
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
	d, err := PerAccessInterval(tr, local)
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
	if _, err := PerAccessInterval(tr, [][]bool{{true}}); err == nil {
		t.Error("single access should yield no gap and an error")
	}
	if _, err := PerAccessInterval(tr, nil); err == nil {
		t.Error("matrix size mismatch accepted")
	}
}

func TestReassign(t *testing.T) {
	tr := &Trace{
		Accesses: []Access{
			{At: 0, Node: 0, Object: 0},
			{At: time.Minute, Node: 1, Object: 0},
			{At: 2 * time.Minute, Node: 2, Object: 0},
		},
		NumNodes: 3, NumObjects: 1, Duration: time.Hour,
	}
	// Sites 0 and 2 stay open; site 1's users go to site 0.
	out, err := tr.Reassign([]int{0, 0, 2}, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumNodes != 2 {
		t.Fatalf("NumNodes = %d, want 2", out.NumNodes)
	}
	wantNodes := []int{0, 0, 1}
	for i, a := range out.Accesses {
		if a.Node != wantNodes[i] {
			t.Errorf("access %d node = %d, want %d", i, a.Node, wantNodes[i])
		}
	}
	if _, err := tr.Reassign([]int{0, 0}, []int{0}); err == nil {
		t.Error("short assignment accepted")
	}
	if _, err := tr.Reassign([]int{0, 1, 2}, []int{0, 2}); err == nil {
		t.Error("assignment to non-open site accepted")
	}
}
