package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("distinct seeds produced %d identical values out of 100", same)
	}
}

func TestNewFromStringStable(t *testing.T) {
	a := NewFromString("mcf")
	b := NewFromString("mcf")
	c := NewFromString("gzip")
	if a.Uint64() != b.Uint64() {
		t.Fatal("same name produced different streams")
	}
	a2 := NewFromString("mcf")
	if a2.Uint64() == c.Uint64() {
		t.Fatal("different names produced identical first values")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) out of range: %d", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		if c < 8500 || c > 11500 {
			t.Fatalf("Intn bucket %d has count %d, want ~10000", i, c)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(19)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(23)
	p := 0.25
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(r.Geometric(p))
	}
	mean := sum / n
	want := (1 - p) / p // 3.0
	if math.Abs(mean-want) > 0.1 {
		t.Fatalf("geometric mean = %v, want ~%v", mean, want)
	}
}

func TestGeometricEdge(t *testing.T) {
	r := New(5)
	for i := 0; i < 100; i++ {
		if v := r.Geometric(1); v != 0 {
			t.Fatalf("Geometric(1) = %d, want 0", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Geometric(0) did not panic")
		}
	}()
	r.Geometric(0)
}

func TestExponentialMean(t *testing.T) {
	r := New(29)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exponential(4)
	}
	mean := sum / n
	if math.Abs(mean-4) > 0.1 {
		t.Fatalf("exponential mean = %v, want ~4", mean)
	}
}

// Property: Float64 is always in [0,1) regardless of seed.
func TestQuickFloat64InRange(t *testing.T) {
	f := func(seed uint64) bool {
		r := New(seed)
		for i := 0; i < 32; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: same string seed yields identical streams.
func TestQuickStringSeedStable(t *testing.T) {
	f := func(name string) bool {
		a := NewFromString(name)
		b := NewFromString(name)
		for i := 0; i < 8; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}
