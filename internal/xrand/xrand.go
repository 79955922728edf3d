// Package xrand provides a small, fast, deterministic random number
// generator used by the topology and workload generators. Reproducibility
// across runs and platforms matters more than statistical sophistication
// here, which is why the package does not depend on math/rand's global
// state or version-dependent algorithms.
package xrand

import (
	"math/bits"
	"sync"
)

// Rand is a SplitMix64-seeded xorshift64* generator. The zero value is not
// valid; construct with New.
type Rand struct {
	s uint64
}

// New returns a generator seeded deterministically from seed.
func New(seed uint64) *Rand {
	// SplitMix64 step to avoid weak low-entropy seeds.
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 0x9e3779b97f4a7c15
	}
	return &Rand{s: z}
}

// Uint64 returns the next raw 64-bit value.
func (r *Rand) Uint64() uint64 {
	r.s = step(r.s)
	return r.s * 0x2545f4914f6cdd1d
}

// step is the xorshift state transition. Each shift-and-xor is linear
// over GF(2), so step is a 64x64 bit matrix T applied to the state.
func step(s uint64) uint64 {
	s ^= s << 13
	s ^= s >> 7
	s ^= s << 17
	return s
}

// Skip advances the generator by n draws: afterwards it returns what it
// would have after n calls of Uint64. It costs O(log n) matrix-vector
// products, one per set bit of n, with the powers T^(2^b) of the state
// transition (Haramoto et al., "Efficient Jump Ahead for F2-Linear Random
// Number Generators", 2008). Powers of one matrix commute, so the bits
// can be applied in any order.
func (r *Rand) Skip(n uint64) {
	jumps := jumpTable()
	for b := 0; n != 0; b, n = b+1, n>>1 {
		if n&1 != 0 {
			r.s = jumps[b].apply(r.s)
		}
	}
}

// bitMatrix is a 64x64 matrix over GF(2) stored by column: column i is
// the image of the state with only bit i set.
type bitMatrix [64]uint64

// apply returns m·v, the xor of the columns that v's set bits select.
func (m *bitMatrix) apply(v uint64) uint64 {
	var out uint64
	for ; v != 0; v &= v - 1 {
		out ^= m[bits.TrailingZeros64(v)]
	}
	return out
}

// jumpTable holds T^(2^b) for b = 0..63, built on first use by squaring:
// column i of M·M is M applied to column i of M.
var jumpTable = sync.OnceValue(func() *[64]bitMatrix {
	var t [64]bitMatrix
	for i := range t[0] {
		t[0][i] = step(1 << i)
	}
	for b := 1; b < len(t); b++ {
		for i := range t[b] {
			t[b][i] = t[b-1].apply(t[b-1][i])
		}
	}
	return &t
})

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Range returns a uniform value in [lo, hi).
func (r *Rand) Range(lo, hi float64) float64 {
	return lo + r.Float64()*(hi-lo)
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
