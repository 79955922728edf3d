package workload

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"wideplace/internal/xrand"
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

// TestCountsCapped: a shape past MaxCells fails before allocating, with no
// overflow on the way, through Bucket, Stream.Counts and Intervals alike.
func TestCountsCapped(t *testing.T) {
	tr := &Trace{NumNodes: 2, NumObjects: 2_000_000_000, Duration: 24 * time.Hour}
	if _, err := tr.Bucket(time.Millisecond); err == nil {
		t.Error("Bucket accepted 2 x 86.4M x 2e9 cells")
	}
	st, err := StreamGroup(GroupOptions{Nodes: 20, Objects: 1 << 20, Requests: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Counts(time.Hour); err == nil {
		t.Error("Stream.Counts accepted 20 x 24 x 2^20 cells")
	}
	if _, err := Intervals(math.MaxInt, math.MaxInt, math.MaxInt64, 1); err == nil {
		t.Error("Intervals accepted a shape whose products overflow")
	}
	if ni, err := Intervals(20, 1000, 24*time.Hour, time.Hour); err != nil || ni != 24 {
		t.Errorf("paper GROUP shape: %d intervals, %v", ni, err)
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

// TestReassign is the differential behind Counts.Reassign: summing each
// site's bucketed counts into its open site must give exactly the counts
// of the trace whose accesses were mapped to their open sites first.
func TestReassign(t *testing.T) {
	tr, err := GenerateWeb(WebOptions{Nodes: 9, Objects: 12, Requests: 4000, Duration: 5 * time.Hour, Seed: 17, WriteFraction: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	counts, err := tr.Bucket(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if _, writes := counts.NNZ(); writes == 0 {
		t.Fatal("trace has no writes to reassign")
	}
	rng := xrand.New(3)
	for trial := 0; trial < 20; trial++ {
		open := []int{0}
		for n := 1; n < tr.NumNodes; n++ {
			if rng.Float64() < 0.4 {
				open = append(open, n)
			}
		}
		index := make(map[int]int, len(open))
		for i, o := range open {
			index[o] = i
		}
		assign := make([]int, tr.NumNodes)
		for n := range assign {
			if _, isOpen := index[n]; isOpen {
				assign[n] = n
			} else {
				assign[n] = open[rng.Intn(len(open))]
			}
		}
		got, err := counts.Reassign(assign, open)
		if err != nil {
			t.Fatal(err)
		}
		mapped := *tr
		mapped.NumNodes = len(open)
		mapped.Accesses = make([]Access, len(tr.Accesses))
		for i, a := range tr.Accesses {
			a.Node = index[assign[a.Node]]
			mapped.Accesses[i] = a
		}
		want, err := mapped.Bucket(time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("open %v, assign %v: reassigned counts differ from bucketing the reassigned trace", open, assign)
		}
	}
	if _, err := counts.Reassign(make([]int, tr.NumNodes-1), []int{0}); err == nil {
		t.Error("short assignment accepted")
	}
	onto := make([]int, tr.NumNodes)
	onto[1] = 1
	if _, err := counts.Reassign(onto, []int{0, 2}); err == nil {
		t.Error("assignment to non-open site accepted")
	}
}
