package workload

import (
	"fmt"
	"math"
	"time"
)

// DefaultObjects is every workload model's object count when its options
// leave Objects zero.
const DefaultObjects = 1000

// WebOptions configures GenerateWeb, the synthetic stand-in for the
// WorldCup98-derived WEB workload: a heavy-tailed Zipf object popularity
// with many unpopular objects and an uneven user population across sites.
type WebOptions struct {
	Nodes    int           // number of sites (default 20)
	Objects  int           // number of objects (default 1000)
	Requests int           // total reads (default 300_000)
	Duration time.Duration // trace horizon (default 24h)
	Seed     uint64
	ZipfS    float64 // Zipf exponent for object popularity (default 1.0)
	NodeSkew float64 // Zipf exponent for per-site activity (default 0.6)
	// WriteFraction flags that fraction of accesses as writes during
	// generation (default 0: a pure read trace). The flags draw from a
	// dedicated RNG, so the access sequence itself is independent of the
	// fraction.
	WriteFraction float64
}

func (o WebOptions) withDefaults() WebOptions {
	if o.Nodes == 0 {
		o.Nodes = 20
	}
	if o.Objects == 0 {
		o.Objects = DefaultObjects
	}
	if o.Requests == 0 {
		o.Requests = 300_000
	}
	if o.Duration == 0 {
		o.Duration = 24 * time.Hour
	}
	if o.ZipfS == 0 {
		o.ZipfS = 1.0
	}
	if o.NodeSkew == 0 {
		o.NodeSkew = 0.6
	}
	return o
}

// GenerateWeb produces the WEB workload: StreamWeb, materialized.
func GenerateWeb(opts WebOptions) (*Trace, error) {
	st, err := StreamWeb(opts)
	if err != nil {
		return nil, err
	}
	return st.Materialize()
}

// GroupOptions configures GenerateGroup, the stand-in for the collaborative
// working-group workload: only popular objects, near-uniform popularity,
// all sites highly active. The paper's GROUP has 16M requests over one day
// with per-object totals between 8.5K and 36K; Requests scales that down
// while preserving the popularity ratio MaxPop/MinPop.
type GroupOptions struct {
	Nodes    int           // default 20
	Objects  int           // default 1000
	Requests int           // default 1_600_000 (paper/10)
	Duration time.Duration // default 24h
	Seed     uint64
	MinPop   float64 // relative weight of the coldest object (default 8.5)
	MaxPop   float64 // relative weight of the hottest object (default 36)
	// WriteFraction flags that fraction of accesses as writes during
	// generation; see WebOptions.WriteFraction.
	WriteFraction float64
}

func (o GroupOptions) withDefaults() GroupOptions {
	if o.Nodes == 0 {
		o.Nodes = 20
	}
	if o.Objects == 0 {
		o.Objects = DefaultObjects
	}
	if o.Requests == 0 {
		o.Requests = 1_600_000
	}
	if o.Duration == 0 {
		o.Duration = 24 * time.Hour
	}
	if o.MinPop == 0 {
		o.MinPop = 8.5
	}
	if o.MaxPop == 0 {
		o.MaxPop = 36
	}
	return o
}

// GenerateGroup produces the GROUP workload: StreamGroup, materialized.
func GenerateGroup(opts GroupOptions) (*Trace, error) {
	st, err := StreamGroup(opts)
	if err != nil {
		return nil, err
	}
	return st.Materialize()
}

// genSpec parameterizes the shared weighted-sampling stream (newStream):
// the WEB and GROUP models are both "draw a time, a node and an object
// from fixed distributions", differing only in their weights. The write
// fraction rides along as a generation-time knob so flagged traces never
// need a post-hoc copy pass.
type genSpec struct {
	nodes, objects, requests int
	duration                 time.Duration
	seed                     uint64
	objWeights               []float64
	nodeWeights              []float64
	writeFraction            float64
}

// zipfWeights returns weights proportional to 1/rank^s.
func zipfWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
	}
	return w
}

// validateExponent rejects a popularity exponent that would turn the Zipf
// weights into infinities, zeros or NaNs.
func validateExponent(name string, s float64) error {
	if !isFinite(s) || s < 0 {
		return fmt.Errorf("workload: %s %v must be a finite non-negative number", name, s)
	}
	return nil
}
