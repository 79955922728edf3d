package experiments

import (
	"math"
	"sync"
	"testing"
	"time"

	"wideplace/internal/core"
	"wideplace/internal/topology"
	"wideplace/internal/workload"
)

func tinySystemInputs(t *testing.T) (*topology.Topology, *workload.Trace) {
	t.Helper()
	topo, err := topology.Generate(topology.GenOptions{N: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	trace, err := workload.GenerateWeb(workload.WebOptions{
		Nodes: 4, Objects: 3, Requests: 200, Duration: 2 * time.Hour, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return topo, trace
}

func TestValidateQoS(t *testing.T) {
	if err := ValidateQoS([]float64{0.9, 0.95, 1}); err != nil {
		t.Errorf("valid points rejected: %v", err)
	}
	for name, pts := range map[string][]float64{
		"empty":     nil,
		"zero":      {0},
		"negative":  {-0.5},
		"above one": {1.01},
		"NaN":       {math.NaN()},
		"infinite":  {math.Inf(1)},
		"duplicate": {0.9, 0.9},
	} {
		if err := ValidateQoS(pts); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestNewSystemValidation(t *testing.T) {
	topo, trace := tinySystemInputs(t)
	qos := []float64{0.9}
	if _, err := NewSystem(nil, trace, time.Hour, 150, qos); err == nil {
		t.Error("nil topology accepted")
	}
	if _, err := NewSystem(topo, nil, time.Hour, 150, qos); err == nil {
		t.Error("nil trace accepted")
	}
	small, err := topology.Generate(topology.GenOptions{N: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSystem(small, trace, time.Hour, 150, qos); err == nil {
		t.Error("node-count mismatch accepted")
	}
	if _, err := NewSystem(topo, trace, 0, 150, qos); err == nil {
		t.Error("zero delta accepted")
	}
	for _, tlat := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewSystem(topo, trace, time.Hour, tlat, qos); err == nil {
			t.Errorf("tlat %v accepted", tlat)
		}
	}
	if _, err := NewSystem(topo, trace, time.Hour, 150, nil); err == nil {
		t.Error("empty QoS accepted")
	}
}

// TestNewSystemSweepWithProgress runs an explicit system through the
// exported Sweep and checks the OnCell progress callback: monotone done
// counts, a constant total, and a final count equal to the grid size.
func TestNewSystemSweepWithProgress(t *testing.T) {
	topo, trace := tinySystemInputs(t)
	sys, err := NewSystem(topo, trace, time.Hour, 150, []float64{0.8, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Spec.Workload != CustomWorkload {
		t.Errorf("workload = %q, want %q", sys.Spec.Workload, CustomWorkload)
	}
	if sys.Spec.Nodes != 4 || sys.Spec.Objects != 3 || sys.Spec.Requests != 200 {
		t.Errorf("spec provenance %+v does not match inputs", sys.Spec)
	}

	classes := []*core.Class{core.General(), core.Caching(topo)}
	var (
		mu    sync.Mutex
		calls []int
		total int
	)
	opts := Options{Parallel: 2, OnCell: func(done, tot int) {
		mu.Lock()
		defer mu.Unlock()
		calls = append(calls, done)
		total = tot
	}}
	fig, err := Sweep(sys, classes, "", opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 || len(fig.Series[0].Points) != 2 {
		t.Fatalf("unexpected figure shape: %+v", fig.Series)
	}
	if fig.Title == "" {
		t.Error("default title not applied")
	}
	mu.Lock()
	defer mu.Unlock()
	if total != 4 || len(calls) != 4 {
		t.Fatalf("progress calls %v (total %d), want 4 calls with total 4", calls, total)
	}
	for i, d := range calls {
		if d != i+1 {
			t.Fatalf("done counts %v not monotone 1..4", calls)
		}
	}
}

func TestSweepRejectsEmptyClasses(t *testing.T) {
	topo, trace := tinySystemInputs(t)
	sys, err := NewSystem(topo, trace, time.Hour, 150, []float64{0.9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Sweep(sys, nil, "", Options{}, nil); err == nil {
		t.Error("empty class list accepted")
	}
}

// TestInstanceConcurrentOnStreamedCounts: the sweep's columns build
// their instances concurrently from one System, so Instance must only
// read it; run under -race. The counts come straight from
// Stream.Counts over a large, mostly zero tensor (8 sites x 8 intervals x
// 1,024 objects = 65,536 cells for 2,000 requests), the input a compact
// form of the counts would target.
func TestInstanceConcurrentOnStreamedCounts(t *testing.T) {
	const nodes = 8
	topo, err := topology.Generate(topology.GenOptions{N: nodes, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	st, err := workload.StreamWeb(workload.WebOptions{
		Nodes: nodes, Objects: 1024, Requests: 2000, Duration: 8 * time.Hour, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	counts, err := st.Counts(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if cells := counts.Nodes * counts.Intervals * counts.Objects; cells < 1<<16 {
		t.Fatalf("counts have %d cells, want at least %d", cells, 1<<16)
	}
	sys := &System{
		Spec:   Spec{Nodes: nodes, Objects: 1024, Requests: 2000, Delta: time.Hour, Tlat: 150},
		Topo:   topo,
		Counts: counts,
	}
	qos := []float64{0.9, 0.95}
	errs := make([]error, len(qos))
	var wg sync.WaitGroup
	for i, q := range qos {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = sys.Instance(q)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("Instance(%g): %v", qos[i], err)
		}
	}
}
