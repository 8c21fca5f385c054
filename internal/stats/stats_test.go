package stats

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestQuantileKnownValues(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		p, want float64
	}{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4},
	}
	for _, c := range cases {
		if got := Quantile(data, c.p); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Quantile(p=%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestQuantileUnsortedInput(t *testing.T) {
	data := []float64{5, 1, 4, 2, 3}
	if got := Quantile(data, 0.5); got != 3 {
		t.Fatalf("median of shuffled = %v, want 3", got)
	}
	// Input must not be mutated.
	if data[0] != 5 {
		t.Fatal("Quantile mutated its input")
	}
}

func TestQuantileSingleElement(t *testing.T) {
	for _, p := range []float64{0, 0.5, 1} {
		if got := Quantile([]float64{7}, p); got != 7 {
			t.Fatalf("Quantile single element p=%v = %v", p, got)
		}
	}
}

func TestQuantilePanics(t *testing.T) {
	for _, f := range []func(){
		func() { Quantile(nil, 0.5) },
		func() { Quantile([]float64{1}, -0.1) },
		func() { Quantile([]float64{1}, 1.1) },
		func() { Quantile([]float64{1}, math.NaN()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestMeanMedian(t *testing.T) {
	data := []float64{2, 4, 6, 8}
	if got := Mean(data); got != 5 {
		t.Fatalf("Mean = %v", got)
	}
	if got := Median(data); got != 5 {
		t.Fatalf("Median = %v", got)
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 4}); !almostEqual(got, 2, 1e-12) {
		t.Fatalf("GeoMean = %v, want 2", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("GeoMean of non-positive did not panic")
		}
	}()
	GeoMean([]float64{1, 0})
}

func TestVarianceStdDev(t *testing.T) {
	data := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(data); !almostEqual(got, 32.0/7, 1e-12) {
		t.Fatalf("Variance = %v, want %v", got, 32.0/7)
	}
	if got := StdDev(data); !almostEqual(got, math.Sqrt(32.0/7), 1e-12) {
		t.Fatalf("StdDev = %v", got)
	}
}

func TestBoxplotNoOutliers(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	b := NewBoxplot(data)
	if b.Med != 5 || b.Q1 != 3 || b.Q3 != 7 {
		t.Fatalf("quartiles = %v/%v/%v", b.Q1, b.Med, b.Q3)
	}
	if b.LoWhisker != 1 || b.HiWhisker != 9 {
		t.Fatalf("whiskers = %v/%v", b.LoWhisker, b.HiWhisker)
	}
	if len(b.Outliers) != 0 {
		t.Fatalf("unexpected outliers %v", b.Outliers)
	}
}

func TestBoxplotOutliers(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 100}
	b := NewBoxplot(data)
	if len(b.Outliers) != 1 || b.Outliers[0] != 100 {
		t.Fatalf("Outliers = %v, want [100]", b.Outliers)
	}
	if b.HiWhisker == 100 {
		t.Fatal("whisker extended to outlier")
	}
	if b.Max != 100 {
		t.Fatalf("Max = %v, want 100 (extremes include outliers)", b.Max)
	}
}

func TestBoxplotWhiskerWithinFence(t *testing.T) {
	data := []float64{10, 10, 10, 10, 10, 10, 50}
	b := NewBoxplot(data)
	// IQR is 0 so whiskers collapse to the quartiles; 50 is an outlier.
	if b.LoWhisker != 10 || b.HiWhisker != 10 {
		t.Fatalf("whiskers = %v/%v, want 10/10", b.LoWhisker, b.HiWhisker)
	}
	if len(b.Outliers) != 1 || b.Outliers[0] != 50 {
		t.Fatalf("Outliers = %v", b.Outliers)
	}
}

func TestBoxplotSortedMatchesBoxplot(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	cases := [][]float64{
		{42},
		{1, 2, 3, 4, 5, 6, 7, 8, 9, 100},
		{10, 10, 10, 10, 10, 10, 50},
		{-3, 0, 0, 0, 7, -40, 2.5},
	}
	for _, n := range []int{2, 3, 17, 1000, 37500} {
		data := make([]float64, n)
		for i := range data {
			// Log-normal with a few repeated values, so there are ties,
			// outliers on the high side and a non-zero IQR.
			data[i] = math.Exp(r.NormFloat64())
			if i%11 == 0 {
				data[i] = data[i/2]
			}
		}
		cases = append(cases, data)
	}
	bits := func(v float64) uint64 { return math.Float64bits(v) }
	for ci, data := range cases {
		want := NewBoxplot(data)
		sorted := append([]float64(nil), data...)
		sort.Float64s(sorted)
		got := NewBoxplotSorted(sorted)
		scalars := [][2]float64{
			{got.Min, want.Min}, {got.Max, want.Max}, {got.Q1, want.Q1}, {got.Med, want.Med},
			{got.Q3, want.Q3}, {got.LoWhisker, want.LoWhisker}, {got.HiWhisker, want.HiWhisker},
			{got.Mean, want.Mean}, {got.StdDev, want.StdDev},
		}
		for fi, s := range scalars {
			if bits(s[0]) != bits(s[1]) {
				t.Fatalf("case %d: field %d = %v, NewBoxplot gave %v", ci, fi, s[0], s[1])
			}
		}
		if got.N != want.N || len(got.Outliers) != len(want.Outliers) {
			t.Fatalf("case %d: N/outliers = %d/%d, want %d/%d", ci, got.N, len(got.Outliers), want.N, len(want.Outliers))
		}
		for i := range got.Outliers {
			if bits(got.Outliers[i]) != bits(want.Outliers[i]) {
				t.Fatalf("case %d: outlier %d = %v, want %v", ci, i, got.Outliers[i], want.Outliers[i])
			}
		}
		// The summary must not alias its input: callers reuse the buffer.
		for i := range sorted {
			sorted[i] = math.NaN()
		}
		for i := range got.Outliers {
			if bits(got.Outliers[i]) != bits(want.Outliers[i]) {
				t.Fatalf("case %d: outliers alias the input", ci)
			}
		}
	}
}

func TestPearsonPerfectCorrelation(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{2, 4, 6, 8}
	if got := Pearson(x, y); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("Pearson = %v, want 1", got)
	}
	yneg := []float64{8, 6, 4, 2}
	if got := Pearson(x, yneg); !almostEqual(got, -1, 1e-12) {
		t.Fatalf("Pearson = %v, want -1", got)
	}
}

func TestPearsonConstantIsNaN(t *testing.T) {
	if got := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); !math.IsNaN(got) {
		t.Fatalf("Pearson of constant = %v, want NaN", got)
	}
}

func TestSpearmanMonotone(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{1, 8, 27, 64, 125} // monotone but nonlinear
	if got := Spearman(x, y); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("Spearman = %v, want 1", got)
	}
}

func TestRanksWithTies(t *testing.T) {
	data := []float64{10, 20, 20, 30}
	want := []float64{1, 2.5, 2.5, 4}
	got := Ranks(data)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ranks = %v, want %v", got, want)
		}
	}
}

func TestRelErr(t *testing.T) {
	if got := RelErr(110, 100); !almostEqual(got, 0.1, 1e-12) {
		t.Fatalf("RelErr = %v, want 0.1", got)
	}
	if got := RelErr(90, 100); !almostEqual(got, 0.1, 1e-12) {
		t.Fatalf("RelErr = %v, want 0.1", got)
	}
}

func TestSignedRelErr(t *testing.T) {
	if got := SignedRelErr(100, 95); !almostEqual(got, -0.05, 1e-12) {
		t.Fatalf("SignedRelErr = %v, want -0.05", got)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Med != 3 || s.Min != 1 || s.Max != 5 {
		t.Fatalf("Summary = %+v", s)
	}
}

// Property: quantile is monotone in p and bounded by min/max.
func TestQuickQuantileMonotone(t *testing.T) {
	f := func(raw []float64, p1, p2 float64) bool {
		data := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				data = append(data, v)
			}
		}
		if len(data) == 0 {
			return true
		}
		clamp := func(p float64) float64 {
			p = math.Abs(math.Mod(p, 1))
			if math.IsNaN(p) {
				return 0.5
			}
			return p
		}
		a, b := clamp(p1), clamp(p2)
		if a > b {
			a, b = b, a
		}
		qa, qb := Quantile(data, a), Quantile(data, b)
		return qa <= qb && qa >= slices.Min(data) && qb <= slices.Max(data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: boxplot invariants Q1 <= Med <= Q3, whiskers inside extremes,
// count of outliers plus in-fence points equals N.
func TestQuickBoxplotInvariants(t *testing.T) {
	f := func(raw []float64) bool {
		data := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				data = append(data, v)
			}
		}
		if len(data) == 0 {
			return true
		}
		b := NewBoxplot(data)
		if !(b.Q1 <= b.Med && b.Med <= b.Q3) {
			return false
		}
		if b.LoWhisker < b.Min || b.HiWhisker > b.Max {
			return false
		}
		return b.N == len(data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Ranks is a permutation-invariant relabeling summing to n(n+1)/2.
func TestQuickRanksSum(t *testing.T) {
	f := func(raw []float64) bool {
		data := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) {
				data = append(data, v)
			}
		}
		n := len(data)
		r := Ranks(data)
		var sum float64
		for _, v := range r {
			sum += v
		}
		return almostEqual(sum, float64(n*(n+1))/2, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuantileAgainstSortReference(t *testing.T) {
	// Cross-check the interpolated quantile against a direct definition on
	// a larger sample.
	data := make([]float64, 101)
	for i := range data {
		data[i] = float64(i) // 0..100
	}
	// With n=101 type-7 quantiles are exact at percentiles.
	for p := 0.0; p <= 1.0; p += 0.05 {
		want := p * 100
		if got := Quantile(data, p); !almostEqual(got, want, 1e-9) {
			t.Fatalf("Quantile(%v) = %v, want %v", p, got, want)
		}
	}
	// And the data must remain sorted/unchanged.
	if !sort.Float64sAreSorted(data) {
		t.Fatal("input mutated")
	}
}
