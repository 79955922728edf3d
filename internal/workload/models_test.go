package workload

import (
	"reflect"
	"testing"
	"time"
)

// materialized returns a stream constructor's workload as a trace.
func materialized(st *Stream, err error) (*Trace, error) {
	if err != nil {
		return nil, err
	}
	return st.Materialize()
}

func TestGenerateFlashCrowdShape(t *testing.T) {
	opts := FlashCrowdOptions{
		Nodes: 10, Objects: 50, Requests: 20000, Duration: 12 * time.Hour,
		Seed: 5, CrowdShare: 0.4, HotObjects: 3,
	}
	tr, err := materialized(StreamFlashCrowd(opts))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Accesses) != opts.Requests {
		t.Fatalf("got %d accesses, want %d", len(tr.Accesses), opts.Requests)
	}
	// The crowd window (default: [D/3, D/3+D/12)) must be much denser
	// than the rest of the horizon: it holds 40% of requests in ~8.3% of
	// the time.
	withDef := opts.withDefaults()
	lo, hi := withDef.CrowdStart, withDef.CrowdStart+withDef.CrowdWidth
	inWindow := 0
	for _, a := range tr.Accesses {
		if a.At >= lo && a.At < hi {
			inWindow++
		}
	}
	if frac := float64(inWindow) / float64(len(tr.Accesses)); frac < 0.40 {
		t.Fatalf("crowd window holds %.1f%% of requests, want >= 40%%", frac*100)
	}
	// Crowd traffic concentrates on the hot objects.
	hot := 0
	for _, a := range tr.Accesses {
		if a.At >= lo && a.At < hi && a.Object < withDef.HotObjects {
			hot++
		}
	}
	if frac := float64(hot) / float64(inWindow); frac < 0.5 {
		t.Fatalf("only %.1f%% of window requests hit the hot set", frac*100)
	}
}

func TestGenerateFlashCrowdRejectsBadOptions(t *testing.T) {
	base := FlashCrowdOptions{Nodes: 5, Objects: 10, Requests: 100, Duration: time.Hour}
	bad := []FlashCrowdOptions{
		{Nodes: -1, Objects: 10, Requests: 100},
		func() FlashCrowdOptions { o := base; o.CrowdShare = 1.5; return o }(),
		func() FlashCrowdOptions { o := base; o.CrowdStart = 2 * time.Hour; return o }(),
		func() FlashCrowdOptions { o := base; o.HotObjects = 11; return o }(),
	}
	for i, o := range bad {
		if _, err := materialized(StreamFlashCrowd(o)); err == nil {
			t.Errorf("case %d: bad options accepted", i)
		}
	}
}

func TestGenerateDiurnalShape(t *testing.T) {
	opts := DiurnalOptions{
		Nodes: 8, Objects: 40, Requests: 40000, Duration: 24 * time.Hour,
		Seed: 9, Zones: 4,
	}
	tr, err := materialized(StreamDiurnal(opts))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Zone 0 (nodes 0 and 4) peaks at the start of the cycle, zone 2
	// (nodes 2 and 6) half a period later. Compare zone-0 activity in the
	// first quarter of the day against the third quarter: it must drop.
	quarter := opts.Duration / 4
	early, late := 0, 0
	for _, a := range tr.Accesses {
		if a.Node%4 != 0 {
			continue
		}
		switch {
		case a.At < quarter:
			early++
		case a.At >= 2*quarter && a.At < 3*quarter:
			late++
		}
	}
	if early <= late {
		t.Fatalf("zone-0 activity early=%d late=%d: no diurnal shift", early, late)
	}
}

func TestGenerateDiurnalObjectDrift(t *testing.T) {
	opts := DiurnalOptions{
		Nodes: 8, Objects: 64, Requests: 30000, Duration: 24 * time.Hour,
		Seed: 9, Zones: 4, ObjectDrift: true,
	}
	tr, err := materialized(StreamDiurnal(opts))
	if err != nil {
		t.Fatal(err)
	}
	// The most popular object of the first zone-step must differ from the
	// most popular object of the third: the hot set drifts.
	hot := func(lo, hi time.Duration) int {
		counts := make(map[int]int)
		for _, a := range tr.Accesses {
			if a.At >= lo && a.At < hi {
				counts[a.Object]++
			}
		}
		best, bestC := -1, -1
		for k, c := range counts {
			if c > bestC || (c == bestC && k < best) {
				best, bestC = k, c
			}
		}
		return best
	}
	step := 6 * time.Hour // Period/Zones
	if a, b := hot(0, step), hot(2*step, 3*step); a == b {
		t.Fatalf("hot object did not drift: %d in both windows", a)
	}
}

func TestModelGeneratorsDeterministic(t *testing.T) {
	f1, err := materialized(StreamFlashCrowd(FlashCrowdOptions{Nodes: 6, Objects: 20, Requests: 5000, Duration: 6 * time.Hour, Seed: 2}))
	if err != nil {
		t.Fatal(err)
	}
	f2, err := materialized(StreamFlashCrowd(FlashCrowdOptions{Nodes: 6, Objects: 20, Requests: 5000, Duration: 6 * time.Hour, Seed: 2}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f1, f2) {
		t.Fatal("StreamFlashCrowd is not deterministic in its seed")
	}
	d1, err := materialized(StreamDiurnal(DiurnalOptions{Nodes: 6, Objects: 20, Requests: 5000, Duration: 6 * time.Hour, Seed: 2, Zones: 3}))
	if err != nil {
		t.Fatal(err)
	}
	d2, err := materialized(StreamDiurnal(DiurnalOptions{Nodes: 6, Objects: 20, Requests: 5000, Duration: 6 * time.Hour, Seed: 2, Zones: 3}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d1, d2) {
		t.Fatal("StreamDiurnal is not deterministic in its seed")
	}
}
