package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
	c := New(43)
	same := 0
	a = New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds collided %d/100 times", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	r := New(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Error("zero seed produced a stuck generator")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %g outside [0, 1)", v)
		}
	}
}

func TestFloat64Moments(t *testing.T) {
	r := New(11)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Float64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean = %g, want ~0.5", mean)
	}
	if math.Abs(variance-1.0/12) > 0.01 {
		t.Errorf("variance = %g, want ~1/12", variance)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	seen := make([]bool, 10)
	for i := 0; i < 10000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d", v)
		}
		seen[v] = true
	}
	for v, ok := range seen {
		if !ok {
			t.Errorf("value %d never produced", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestRange(t *testing.T) {
	r := New(5)
	for i := 0; i < 1000; i++ {
		v := r.Range(100, 200)
		if v < 100 || v >= 200 {
			t.Fatalf("Range(100,200) = %g", v)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	check := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%30) + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestSkipMatchesStepping: Skip(n) lands on the state n calls of Uint64
// reach, from a run of small and large n that crosses several bits of
// the jump table, on several seeds.
func TestSkipMatchesStepping(t *testing.T) {
	ns := []uint64{0, 1, 2, 3, 63, 64, 1000, 48_000_001}
	for _, seed := range []uint64{0, 1, 42, 0xdeadbeef} {
		ref := New(seed)
		var stepped uint64
		for _, n := range ns {
			for ; stepped < n; stepped++ {
				ref.Uint64()
			}
			r := New(seed)
			r.Skip(n)
			if got, want := r.Uint64(), ref.Uint64(); got != want {
				t.Errorf("seed %d: after Skip(%d) drew %#x, after %d steps %#x", seed, n, got, n, want)
			}
			stepped++
		}
	}
}

// TestSkipComposes: Skip(a) then Skip(b) equals Skip(a+b).
func TestSkipComposes(t *testing.T) {
	check := func(seed uint64, a, b uint32) bool {
		x, y := New(seed), New(seed)
		x.Skip(uint64(a))
		x.Skip(uint64(b))
		y.Skip(uint64(a) + uint64(b))
		return x.Uint64() == y.Uint64()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// FuzzSkip checks Skip(n) against n sequential steps for n up to 2^16.
func FuzzSkip(f *testing.F) {
	f.Add(uint64(0), uint64(0))
	f.Add(uint64(7), uint64(1))
	f.Add(uint64(99), uint64(1<<16))
	f.Fuzz(func(t *testing.T, seed, n uint64) {
		n %= 1<<16 + 1
		ref, r := New(seed), New(seed)
		for i := uint64(0); i < n; i++ {
			ref.Uint64()
		}
		r.Skip(n)
		if got, want := r.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("seed %d: after Skip(%d) drew %#x, want %#x", seed, n, got, want)
		}
	})
}
