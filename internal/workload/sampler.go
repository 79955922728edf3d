package workload

import (
	"errors"
	"fmt"
	"math"
)

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// sampler draws indices from a fixed discrete distribution. It is an
// indexed search ("guide table", Chen & Asau 1974) over the normalized
// cumulative distribution cum: with K = len(cum) buckets, guide[b] is the
// first index i with int(cum[i]*K) >= b, capped at last = len(cum)-1.
//
// index(u) returns exactly what a binary search for the first i with
// cum[i] >= u (or last when there is none) returns. Let b = int(u*K),
// clamped to K-1, so b <= u*K. Every i before guide[b] has int(cum[i]*K)
// < b, hence cum[i]*K < b <= u*K; float multiplication by K is monotone,
// so cum[i] < u. The forward scan from guide[b] then applies the binary
// search's own comparison, cum[i] < u, to the remaining candidates in
// order, and so stops at min{i : cum[i] >= u}, or at last. The draw is
// therefore bit-identical to the binary search; only its cost changes,
// from O(log K) to an expected O(1) steps.
type sampler struct {
	cum   []float64
	guide []int32
	k     float64 // K, the bucket count
}

// cumulative builds the sampler of weights w. Every weight must be finite
// and non-negative, and their total finite and positive: anything else
// yields a NaN or degenerate distribution on which every draw would land
// on one index.
func cumulative(w []float64) (*sampler, error) {
	if len(w) == 0 {
		return nil, errors.New("empty weight vector")
	}
	cum := make([]float64, len(w))
	total := 0.0
	for i, v := range w {
		if !isFinite(v) || v < 0 {
			return nil, fmt.Errorf("weight %d is %v, want finite and non-negative", i, v)
		}
		total += v
		cum[i] = total
	}
	if !isFinite(total) || total <= 0 {
		return nil, fmt.Errorf("weight total %v must be finite and positive", total)
	}
	for i := range cum {
		cum[i] /= total
	}
	last := len(cum) - 1
	cum[last] = 1
	k := float64(len(cum))
	guide := make([]int32, len(cum))
	i := 0
	for b := range guide {
		for i < last && int(cum[i]*k) < b {
			i++
		}
		guide[b] = int32(i)
	}
	return &sampler{cum: cum, guide: guide, k: k}, nil
}

// index maps a uniform u in [0, 1) to its index (see sampler).
func (s *sampler) index(u float64) int {
	b := int(u * s.k)
	if b >= len(s.guide) {
		b = len(s.guide) - 1
	}
	i, last := int(s.guide[b]), len(s.cum)-1
	for i < last && s.cum[i] < u {
		i++
	}
	return i
}
