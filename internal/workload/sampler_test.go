package workload

import (
	"math"
	"strings"
	"testing"
	"time"

	"wideplace/internal/xrand"
)

// searchCDF is the binary search the generators used before the guide
// table: the first i with cum[i] >= u, or the last index when there is
// none. It is the oracle the sampler must agree with on every u.
func searchCDF(cum []float64, u float64) int {
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// maxUniform is the largest value xrand.Float64 can return, 1 - 2^-53.
var maxUniform = math.Nextafter(1, 0)

// checkSampler compares the sampler of w with the binary search at the
// ends of [0, 1), at, just below and just above every cumulative value,
// and at n draws from a seeded RNG.
func checkSampler(t *testing.T, w []float64, n int) {
	t.Helper()
	s, err := cumulative(w)
	if err != nil {
		t.Fatalf("cumulative(%v): %v", w, err)
	}
	us := []float64{0, maxUniform}
	for _, c := range s.cum {
		us = append(us, c, math.Nextafter(c, 0), math.Nextafter(c, 2))
	}
	rng := xrand.New(uint64(len(w)))
	for j := 0; j < n; j++ {
		us = append(us, rng.Float64())
	}
	for _, u := range us {
		if u < 0 || u >= 1 {
			continue // outside Float64's range
		}
		if got, want := s.index(u), searchCDF(s.cum, u); got != want {
			t.Fatalf("weights %v, u=%v: guide table picks %d, binary search %d", w, u, got, want)
		}
	}
}

func TestSamplerMatchesBinarySearch(t *testing.T) {
	rng := xrand.New(7)
	group := make([]float64, 1000)
	for k := range group {
		group[k] = rng.Range(8.5, 36)
	}
	uniform := make([]float64, 20)
	for k := range uniform {
		uniform[k] = 1
	}
	cases := map[string][]float64{
		"single":          {3},
		"single tiny":     {math.SmallestNonzeroFloat64},
		"two":             {1, 1},
		"zero weights":    {0, 0, 1, 0, 2, 0, 0},
		"leading zeros":   {0, 0, 0, 0, 5},
		"trailing zeros":  {5, 0, 0, 0, 0},
		"one hot in many": append(make([]float64, 999), 1),
		"uniform 20":      uniform,
		"group 1000":      group,
		"zipf 1000":       zipfWeights(1000, 1),
		"zipf steep":      zipfWeights(500, 4),
		"node skew 20":    zipfWeights(20, 0.6),
		"wide range":      {1e-300, 1, 1e300, 1e-300, 1e-10},
	}
	for name, w := range cases {
		t.Run(name, func(t *testing.T) { checkSampler(t, w, 20000) })
	}
}

// FuzzSampleCDF checks the guide table against the binary search on
// arbitrary weight vectors, zeros and extreme magnitudes included. Each
// pair of bytes is one weight: a mantissa byte scaled by a power of two.
func FuzzSampleCDF(f *testing.F) {
	f.Add([]byte{1, 40}, uint64(0))
	f.Add([]byte{0, 0, 7, 40, 0, 0, 255, 79}, uint64(1)<<63)
	f.Add([]byte{3, 0, 3, 79, 3, 40, 0, 12}, ^uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, bits uint64) {
		w := make([]float64, len(data)/2)
		for j := range w {
			w[j] = math.Ldexp(float64(data[2*j]), int(data[2*j+1]%80)-40)
		}
		s, err := cumulative(w)
		if err != nil {
			return // empty or all-zero weights
		}
		u := float64(bits>>11) / (1 << 53) // as xrand.Float64 maps bits
		if got, want := s.index(u), searchCDF(s.cum, u); got != want {
			t.Fatalf("weights %v, u=%v: guide table picks %d, binary search %d", w, u, got, want)
		}
		checkSampler(t, w, 0)
	})
}

func TestCumulativeRejectsBadWeights(t *testing.T) {
	cases := map[string][]float64{
		"empty":          nil,
		"all zero":       {0, 0, 0},
		"negative":       {1, -1, 1},
		"NaN":            {1, math.NaN()},
		"infinite":       {1, math.Inf(1)},
		"total overflow": {math.MaxFloat64, math.MaxFloat64},
	}
	for name, w := range cases {
		if _, err := cumulative(w); err == nil {
			t.Errorf("%s: weights %v accepted", name, w)
		}
	}
}

// Weights whose total overflows or vanishes yield a NaN distribution on
// which every access would silently land on one object, and negative sizes
// would reach make; the stream constructors must reject both.
func TestStreamsRejectDegenerateWeights(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	small := func(o WebOptions) WebOptions {
		o.Nodes, o.Objects, o.Requests = 4, 50, 100
		return o
	}
	cases := []struct {
		name string
		open func() (*Stream, error)
		want string
	}{
		{"web zipf -200", func() (*Stream, error) { return StreamWeb(small(WebOptions{ZipfS: -200})) }, "ZipfS"},
		{"web zipf NaN", func() (*Stream, error) { return StreamWeb(small(WebOptions{ZipfS: nan})) }, "ZipfS"},
		{"web zipf +Inf", func() (*Stream, error) { return StreamWeb(small(WebOptions{ZipfS: inf})) }, "ZipfS"},
		{"web node skew -1", func() (*Stream, error) { return StreamWeb(small(WebOptions{NodeSkew: -1})) }, "NodeSkew"},
		{"group total overflow", func() (*Stream, error) {
			return StreamGroup(GroupOptions{Nodes: 4, Objects: 50, Requests: 100, MinPop: 1e307, MaxPop: 1.7e308})
		}, "weight total"},
		{"group MinPop NaN", func() (*Stream, error) {
			return StreamGroup(GroupOptions{Nodes: 4, Objects: 50, Requests: 100, MinPop: nan, MaxPop: 36})
		}, "MinPop"},
		{"group MaxPop +Inf", func() (*Stream, error) {
			return StreamGroup(GroupOptions{Nodes: 4, Objects: 50, Requests: 100, MinPop: 1, MaxPop: inf})
		}, "MinPop"},
		{"group negative objects", func() (*Stream, error) {
			return StreamGroup(GroupOptions{Nodes: 4, Objects: -1, Requests: 100})
		}, "positive"},
		{"group negative nodes", func() (*Stream, error) {
			return StreamGroup(GroupOptions{Nodes: -1, Objects: 50, Requests: 100})
		}, "positive"},
		{"flash crowd zipf -1", func() (*Stream, error) {
			return StreamFlashCrowd(FlashCrowdOptions{Nodes: 4, Objects: 50, Requests: 100, ZipfS: -1})
		}, "ZipfS"},
		{"flash crowd node skew NaN", func() (*Stream, error) {
			return StreamFlashCrowd(FlashCrowdOptions{Nodes: 4, Objects: 50, Requests: 100, NodeSkew: nan})
		}, "NodeSkew"},
		{"diurnal zipf +Inf", func() (*Stream, error) {
			return StreamDiurnal(DiurnalOptions{Nodes: 4, Objects: 50, Requests: 100, Duration: time.Hour, ZipfS: inf})
		}, "ZipfS"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := c.open()
			if err == nil {
				t.Fatal("degenerate weights accepted")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not name %s", err, c.want)
			}
		})
	}
}
