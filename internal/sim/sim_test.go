package sim

import (
	"errors"
	"math"
	"testing"
	"time"

	"wideplace/internal/topology"
	"wideplace/internal/workload"
)

func line3(t *testing.T) *topology.Topology {
	t.Helper()
	tp, err := topology.New(3, []topology.Link{{A: 0, B: 1, Latency: 100}, {A: 1, B: 2, Latency: 100}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func TestTrackerAccounting(t *testing.T) {
	tr := NewTracker(3, 5, 0)
	tr.Create(1, 2, 0)
	if !tr.Stored(1, 2) {
		t.Fatal("object not stored after Create")
	}
	tr.Create(1, 2, time.Hour) // duplicate: no-op
	if tr.creates != 1 {
		t.Errorf("creates = %d, want 1", tr.creates)
	}
	tr.Create(0, 3, 0) // origin: no-op
	if tr.Stored(0, 3) || tr.creates != 1 {
		t.Error("origin placement should be ignored")
	}
	tr.Evict(1, 2, 2*time.Hour)
	if tr.Stored(1, 2) {
		t.Error("object still stored after Evict")
	}
	if math.Abs(tr.objHours-2) > 1e-12 {
		t.Errorf("objHours = %g, want 2", tr.objHours)
	}
	tr.Evict(1, 2, 3*time.Hour) // double evict: no-op
	if math.Abs(tr.objHours-2) > 1e-12 {
		t.Errorf("objHours after double evict = %g, want 2", tr.objHours)
	}
	tr.Create(2, 4, time.Hour)
	tr.finish(4 * time.Hour)
	if math.Abs(tr.objHours-5) > 1e-12 {
		t.Errorf("objHours after finish = %g, want 5", tr.objHours)
	}
	if tr.Stored(2, 4) {
		t.Error("finish should close open placements")
	}
}

func TestTrackerQueries(t *testing.T) {
	tr := NewTracker(3, 5, 0)
	tr.Create(1, 2, 0)
	tr.Create(1, 3, 0)
	tr.Create(2, 2, 0)
	if tr.Count(1) != 2 {
		t.Errorf("Count(1) = %d, want 2", tr.Count(1))
	}
	objs := tr.HoldersOn(1)
	if len(objs) != 2 {
		t.Errorf("HoldersOn(1) = %v, want two objects", objs)
	}
	if !tr.Stored(1, 2) || !tr.Stored(2, 2) || tr.Stored(0, 2) {
		t.Error("object 2 should be stored on nodes 1 and 2 only")
	}
}

// originOnly is a heuristic that never places anything.
type originOnly struct{ intervals int }

func (o *originOnly) Name() string          { return "origin-only" }
func (o *originOnly) Attach(env *Env) error { return nil }
func (o *originOnly) OnRead(node, object int, at time.Duration) int {
	return Origin
}
func (o *originOnly) OnIntervalStart(int, time.Duration)           { o.intervals++ }
func (o *originOnly) ProvisionedObjectHours(time.Duration) float64 { return -1 }

func TestRunOriginOnly(t *testing.T) {
	tp := line3(t)
	tr := &workload.Trace{
		Accesses: []workload.Access{
			{At: 0, Node: 1},                            // 100ms from origin: within 150
			{At: time.Minute, Node: 2},                  // 200ms: beyond 150
			{At: 2 * time.Minute, Node: 2},              // beyond
			{At: 3 * time.Minute, Node: 2, Write: true}, // ignored
		},
		NumNodes: 3, NumObjects: 1, Duration: time.Hour,
	}
	h := &originOnly{}
	m, err := Run(Config{Topo: tp, Trace: tr, Tlat: 150, Alpha: 1, Beta: 1}, h)
	if err != nil {
		t.Fatal(err)
	}
	if m.Served != 3 {
		t.Errorf("Served = %d, want 3 (write excluded)", m.Served)
	}
	if m.WithinTlat != 1 {
		t.Errorf("WithinTlat = %d, want 1", m.WithinTlat)
	}
	if math.Abs(m.QoS-1.0/3.0) > 1e-12 {
		t.Errorf("QoS = %g, want 1/3", m.QoS)
	}
	if m.Cost != 0 {
		t.Errorf("Cost = %g, want 0", m.Cost)
	}
	if m.MinNodeQoS != 0 {
		t.Errorf("MinNodeQoS = %g, want 0 (node 2 always misses)", m.MinNodeQoS)
	}
	if m.PerNodeQoS[1] != 1 {
		t.Errorf("PerNodeQoS[1] = %g, want 1", m.PerNodeQoS[1])
	}
	if h.intervals != 1 {
		t.Errorf("interval callbacks = %d, want 1 (whole-trace interval)", h.intervals)
	}
	wantAvg := (100.0 + 200 + 200) / 3
	if math.Abs(m.AvgLatency-wantAvg) > 1e-9 {
		t.Errorf("AvgLatency = %g, want %g", m.AvgLatency, wantAvg)
	}
}

func TestRunIntervalCallbacks(t *testing.T) {
	tp := line3(t)
	tr := &workload.Trace{
		Accesses: []workload.Access{
			{At: 0, Node: 1},
			{At: 150 * time.Minute, Node: 1},
		},
		NumNodes: 3, NumObjects: 1, Duration: 3 * time.Hour,
	}
	h := &originOnly{}
	if _, err := Run(Config{Topo: tp, Trace: tr, Interval: time.Hour, Tlat: 150, Alpha: 1, Beta: 1}, h); err != nil {
		t.Fatal(err)
	}
	// Intervals 0, 1, 2 must be announced before the access at 2.5h.
	if h.intervals != 3 {
		t.Errorf("interval callbacks = %d, want 3", h.intervals)
	}
}

// badSource serves from a node that does not store the object.
type badSource struct{}

func (badSource) Name() string                                  { return "bad" }
func (badSource) Attach(*Env) error                             { return nil }
func (badSource) OnRead(node, object int, at time.Duration) int { return node + 1 }
func (badSource) OnIntervalStart(int, time.Duration)            {}
func (badSource) ProvisionedObjectHours(time.Duration) float64  { return -1 }

func TestRunRejectsInvalidServing(t *testing.T) {
	tp := line3(t)
	tr := &workload.Trace{
		Accesses: []workload.Access{{Node: 1}},
		NumNodes: 3, NumObjects: 1, Duration: time.Hour,
	}
	if _, err := Run(Config{Topo: tp, Trace: tr, Tlat: 150}, badSource{}); err == nil {
		t.Error("serving from a non-holder accepted")
	}
}

func TestRunValidation(t *testing.T) {
	tp := line3(t)
	if _, err := Run(Config{Topo: tp}, &originOnly{}); err == nil {
		t.Error("nil trace accepted")
	}
	tr := &workload.Trace{NumNodes: 7, NumObjects: 1, Duration: time.Hour}
	if _, err := Run(Config{Topo: tp, Trace: tr}, &originOnly{}); err == nil {
		t.Error("node mismatch accepted")
	}
}

// capHeuristic simulates a tunable heuristic: it pins objects 0..c-1 on
// node 2, so QoS grows with the parameter.
type capHeuristic struct {
	c   int
	env *Env
}

func (h *capHeuristic) Name() string { return "cap" }
func (h *capHeuristic) Attach(env *Env) error {
	h.env = env
	for k := 0; k < h.c && k < env.Objects; k++ {
		env.Tracker.Create(2, k, 0)
	}
	return nil
}
func (h *capHeuristic) OnRead(node, object int, at time.Duration) int {
	if h.env.Tracker.Stored(node, object) {
		return node
	}
	return Origin
}
func (*capHeuristic) OnIntervalStart(int, time.Duration)           {}
func (*capHeuristic) ProvisionedObjectHours(time.Duration) float64 { return -1 }

func TestTune(t *testing.T) {
	tp := line3(t)
	// Node 2 (200ms from origin) reads objects 0..9; a "hit" is local
	// (0ms). QoS = c/10 for capacity c.
	acc := make([]workload.Access, 10)
	for i := range acc {
		acc[i] = workload.Access{At: time.Duration(i) * time.Minute, Node: 2, Object: i}
	}
	tr := &workload.Trace{Accesses: acc, NumNodes: 3, NumObjects: 10, Duration: time.Hour}
	cfg := Config{Topo: tp, Trace: tr, Tlat: 150, Alpha: 1, Beta: 1}

	param, m, err := Tune(cfg, func(p int) Heuristic {
		return &capHeuristic{c: p}
	}, 0, 10, 0.7, false)
	if err != nil {
		t.Fatal(err)
	}
	if param != 7 {
		t.Errorf("tuned param = %d, want 7", param)
	}
	if m.QoS < 0.7 {
		t.Errorf("tuned QoS = %g, want >= 0.7", m.QoS)
	}

	if _, _, err := Tune(cfg, func(p int) Heuristic { return &capHeuristic{c: p} }, 0, 5, 0.99, false); !errors.Is(err, ErrGoalNotMet) {
		t.Errorf("err = %v, want ErrGoalNotMet", err)
	}
}
