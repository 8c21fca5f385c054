package regression

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/stats"
)

// makeDataset builds a dataset from named columns.
func makeDataset(t *testing.T, n int, cols map[string][]float64) *Dataset {
	t.Helper()
	d := NewDataset(n)
	for _, name := range sortedKeys(cols) {
		d.AddColumn(name, cols[name])
	}
	return d
}

func sortedKeys(m map[string][]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	// insertion order must be deterministic for reproducible fits
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

func TestDatasetBasics(t *testing.T) {
	d := NewDataset(3)
	d.AddColumn("x", []float64{1, 2, 3})
	if !d.HasColumn("x") || d.HasColumn("y") {
		t.Fatal("HasColumn wrong")
	}
	if d.N() != 3 {
		t.Fatal("N wrong")
	}
}

func TestDatasetPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewDataset(0) },
		func() {
			d := NewDataset(2)
			d.AddColumn("x", []float64{1})
		},
		func() {
			d := NewDataset(1)
			d.AddColumn("x", []float64{1})
			d.AddColumn("x", []float64{2})
		},
		func() { NewDataset(1).Column("missing") },
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

func TestTransforms(t *testing.T) {
	cases := []struct {
		tr   Transform
		y    float64
		want float64
	}{
		{Identity, 4, 4},
		{Sqrt, 4, 2},
		{Log, math.E, 1},
	}
	for _, c := range cases {
		if got := c.tr.Apply(c.y); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("%v.Apply(%v) = %v", c.tr, c.y, got)
		}
		if got := c.tr.Inverse(c.tr.Apply(c.y)); math.Abs(got-c.y) > 1e-12 {
			t.Fatalf("%v round-trip failed", c.tr)
		}
	}
}

func TestTransformDomainPanics(t *testing.T) {
	for _, f := range []func(){
		func() { Sqrt.Apply(-1) },
		func() { Log.Apply(0) },
		func() { Transform(99).Apply(1) },
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

func TestTransformString(t *testing.T) {
	if Identity.String() != "identity" || Sqrt.String() != "sqrt" || Log.String() != "log" {
		t.Fatal("transform names wrong")
	}
	if !strings.Contains(Transform(42).String(), "42") {
		t.Fatal("unknown transform name should include code")
	}
}

func TestFitRecoversLinearModel(t *testing.T) {
	// y = 3 + 2a - b, exactly.
	n := 50
	r := rng.New(5)
	a := make([]float64, n)
	bcol := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a[i] = r.Float64() * 10
		bcol[i] = r.Float64() * 5
		y[i] = 3 + 2*a[i] - bcol[i]
	}
	d := makeDataset(t, n, map[string][]float64{"a": a, "b": bcol, "y": y})
	m, err := Fit(NewSpec("y", Identity).Linear("a").Linear("b"), d)
	if err != nil {
		t.Fatal(err)
	}
	beta := m.beta
	want := []float64{3, 2, -1}
	for i := range want {
		if math.Abs(beta[i]-want[i]) > 1e-9 {
			t.Fatalf("beta = %v, want %v", beta, want)
		}
	}
	if m.r2 < 0.999999 {
		t.Fatalf("R2 = %v, want ~1", m.r2)
	}
}

func TestFitInteraction(t *testing.T) {
	// y = 1 + a + b + 0.5ab.
	n := 60
	r := rng.New(7)
	a := make([]float64, n)
	bcol := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a[i] = r.Float64() * 4
		bcol[i] = r.Float64() * 4
		y[i] = 1 + a[i] + bcol[i] + 0.5*a[i]*bcol[i]
	}
	d := makeDataset(t, n, map[string][]float64{"a": a, "b": bcol, "y": y})
	m, err := Fit(NewSpec("y", Identity).Linear("a").Linear("b").Interact("a", "b"), d)
	if err != nil {
		t.Fatal(err)
	}
	beta := m.beta
	if math.Abs(beta[3]-0.5) > 1e-9 {
		t.Fatalf("interaction coefficient = %v, want 0.5", beta[3])
	}
	// Predict at a fresh point.
	got := m.Predict(byName(map[string]float64{"a": 2, "b": 3}))
	want := 1.0 + 2 + 3 + 0.5*6
	if math.Abs(got-want) > 1e-8 {
		t.Fatalf("Predict = %v, want %v", got, want)
	}
}

func TestFitSplineCapturesNonlinearity(t *testing.T) {
	// A smooth nonlinear function: spline should fit far better than a
	// pure linear model.
	n := 200
	r := rng.New(11)
	x := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = r.Float64() * 10
		y[i] = math.Sin(x[i]/2) + 0.3*x[i]
	}
	d := makeDataset(t, n, map[string][]float64{"x": x, "y": y})
	lin, err := Fit(NewSpec("y", Identity).Linear("x"), d)
	if err != nil {
		t.Fatal(err)
	}
	spl, err := Fit(NewSpec("y", Identity).Spline("x", 5), d)
	if err != nil {
		t.Fatal(err)
	}
	if spl.r2 <= lin.r2 {
		t.Fatalf("spline R2 %v should beat linear R2 %v", spl.r2, lin.r2)
	}
	if spl.r2 < 0.95 {
		t.Fatalf("spline R2 = %v, want > 0.95", spl.r2)
	}
}

func TestFitLogTransformForExponential(t *testing.T) {
	// y = exp(0.5x): log response makes the fit exact.
	n := 80
	r := rng.New(13)
	x := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = r.Float64() * 6
		y[i] = math.Exp(0.5 * x[i])
	}
	d := makeDataset(t, n, map[string][]float64{"x": x, "y": y})
	m, err := Fit(NewSpec("y", Log).Linear("x"), d)
	if err != nil {
		t.Fatal(err)
	}
	beta := m.beta
	if math.Abs(beta[1]-0.5) > 1e-9 {
		t.Fatalf("slope on log scale = %v, want 0.5", beta[1])
	}
	got := m.Predict(byName(map[string]float64{"x": 4}))
	if math.Abs(got-math.Exp(2)) > 1e-6 {
		t.Fatalf("Predict = %v, want e^2", got)
	}
}

func TestFitSqrtTransform(t *testing.T) {
	// y = (1 + 2x)^2: sqrt response makes it linear.
	n := 50
	r := rng.New(17)
	x := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = r.Float64() * 3
		v := 1 + 2*x[i]
		y[i] = v * v
	}
	d := makeDataset(t, n, map[string][]float64{"x": x, "y": y})
	m, err := Fit(NewSpec("y", Sqrt).Linear("x"), d)
	if err != nil {
		t.Fatal(err)
	}
	got := m.Predict(byName(map[string]float64{"x": 1}))
	if math.Abs(got-9) > 1e-8 {
		t.Fatalf("Predict = %v, want 9", got)
	}
}

func TestFitSplineDegradesWithFewLevels(t *testing.T) {
	// Predictor with only 2 levels: the spline term must degrade to
	// linear rather than fail.
	n := 40
	r := rng.New(19)
	x := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = float64(i % 2)
		y[i] = 2 + 3*x[i] + 0.01*r.NormFloat64()
	}
	d := makeDataset(t, n, map[string][]float64{"x": x, "y": y})
	m, err := Fit(NewSpec("y", Identity).Spline("x", 4), d)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.beta) != 2 {
		t.Fatalf("degraded spline should have 2 coefficients, got %d", len(m.beta))
	}
}

func TestFitErrors(t *testing.T) {
	d := makeDataset(t, 5, map[string][]float64{
		"x": {1, 2, 3, 4, 5},
		"y": {1, 2, 3, 4, 5},
	})
	if _, err := Fit(NewSpec("missing", Identity).Linear("x"), d); err == nil {
		t.Fatal("missing response accepted")
	}
	if _, err := Fit(NewSpec("y", Identity).Linear("nope"), d); err == nil {
		t.Fatal("missing predictor accepted")
	}
	if _, err := Fit(NewSpec("y", Identity), d); err == nil {
		t.Fatal("empty spec accepted")
	}
	// Duplicate predictor columns -> rank deficiency.
	if _, err := Fit(NewSpec("y", Identity).Linear("x").Linear("x"), d); err == nil {
		t.Fatal("rank-deficient fit accepted")
	}
}

func TestFitTooFewObservations(t *testing.T) {
	d := makeDataset(t, 2, map[string][]float64{
		"a": {1, 2}, "b": {3, 5}, "c": {2, 8}, "y": {1, 2},
	})
	if _, err := Fit(NewSpec("y", Identity).Linear("a").Linear("b").Linear("c"), d); err == nil {
		t.Fatal("underdetermined fit accepted")
	}
}

func TestPredictors(t *testing.T) {
	d := makeDataset(t, 10, map[string][]float64{
		"a": seq(10, 1), "b": seq(10, 2), "y": seq(10, 3),
	})
	m, err := Fit(NewSpec("y", Identity).Linear("a").Interact("a", "b"), d)
	if err != nil {
		t.Fatal(err)
	}
	if m.Response() != "y" {
		t.Fatalf("Response = %q", m.Response())
	}
}

func TestSummaryContainsDiagnostics(t *testing.T) {
	d := makeDataset(t, 10, map[string][]float64{"x": seq(10, 1), "y": seq(10, 2)})
	m, err := Fit(NewSpec("y", Identity).Linear("x"), d)
	if err != nil {
		t.Fatal(err)
	}
	s := m.Summary()
	for _, want := range []string{"response: y", "R2=", "(intercept)", "x"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Summary missing %q:\n%s", want, s)
		}
	}
}

func seq(n int, scale float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = scale * float64(i+1)
	}
	return out
}

// Property: in-sample residuals of a fitted model have ~zero mean on the
// transformed scale (intercept absorbs the mean).
func TestQuickResidualMeanZero(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 40
		x := make([]float64, n)
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			x[i] = r.Float64() * 10
			y[i] = 5 + 2*x[i] + r.NormFloat64()
		}
		d := NewDataset(n)
		d.AddColumn("x", x)
		d.AddColumn("y", y)
		m, err := Fit(NewSpec("y", Identity).Linear("x"), d)
		if err != nil {
			return false
		}
		var sum float64
		for i := 0; i < n; i++ {
			xi := x[i]
			sum += y[i] - m.Predict(func(string) float64 { return xi })
		}
		return math.Abs(sum/float64(n)) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: model predictions on training points track observations with
// R2 consistent with the reported diagnostic.
func TestQuickR2Bounds(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 50
		x := make([]float64, n)
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			x[i] = r.Float64() * 10
			y[i] = 1 + x[i] + 0.5*r.NormFloat64()
		}
		d := NewDataset(n)
		d.AddColumn("x", x)
		d.AddColumn("y", y)
		m, err := Fit(NewSpec("y", Identity).Spline("x", 4), d)
		if err != nil {
			return false
		}
		return m.r2 >= 0 && m.r2 <= 1 && m.adjR2 <= m.r2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestValidationErrorMetricIntegration(t *testing.T) {
	// End-to-end: fit on noisy nonlinear data, validate on held-out
	// points, compute the paper's |obs-pred|/pred median error.
	r := rng.New(23)
	gen := func(n int) (x1, x2, y []float64) {
		x1 = make([]float64, n)
		x2 = make([]float64, n)
		y = make([]float64, n)
		for i := 0; i < n; i++ {
			x1[i] = 1 + r.Float64()*9
			x2[i] = 1 + r.Float64()*4
			mean := math.Pow(2+0.8*x1[i]-0.05*x1[i]*x1[i]+0.3*x2[i]+0.1*x1[i]*x2[i], 2)
			y[i] = mean * (1 + 0.02*r.NormFloat64())
		}
		return
	}
	x1, x2, y := gen(300)
	d := NewDataset(300)
	d.AddColumn("x1", x1)
	d.AddColumn("x2", x2)
	d.AddColumn("y", y)
	m, err := Fit(NewSpec("y", Sqrt).Spline("x1", 4).Spline("x2", 3).Interact("x1", "x2"), d)
	if err != nil {
		t.Fatal(err)
	}
	vx1, vx2, vy := gen(100)
	errs := make([]float64, len(vy))
	for i := range vy {
		pred := m.Predict(byName(map[string]float64{"x1": vx1[i], "x2": vx2[i]}))
		errs[i] = stats.RelErr(vy[i], pred)
	}
	med := stats.Median(errs)
	if med > 0.05 {
		t.Fatalf("median validation error = %v, want < 5%%", med)
	}
}

func BenchmarkFit1000x30(b *testing.B) {
	r := rng.New(1)
	n := 1000
	d := NewDataset(n)
	cols := []string{"a", "b", "c", "d", "e", "f", "g"}
	vals := make(map[string][]float64)
	for _, c := range cols {
		v := make([]float64, n)
		for i := range v {
			v[i] = r.Float64() * 10
		}
		vals[c] = v
		d.AddColumn(c, v)
	}
	y := make([]float64, n)
	for i := range y {
		y[i] = 1 + vals["a"][i] + 0.5*vals["b"][i]*vals["c"][i] + r.NormFloat64()
	}
	d.AddColumn("y", y)
	spec := NewSpec("y", Sqrt)
	for _, c := range cols {
		spec.Spline(c, 4)
	}
	spec.Interact("a", "b").Interact("c", "d")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(spec, d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredict(b *testing.B) {
	r := rng.New(1)
	n := 500
	d := NewDataset(n)
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = r.Float64() * 10
		y[i] = 1 + x[i]*x[i]
	}
	d.AddColumn("x", x)
	d.AddColumn("y", y)
	m, err := Fit(NewSpec("y", Sqrt).Spline("x", 4), d)
	if err != nil {
		b.Fatal(err)
	}
	get := func(string) float64 { return 5.0 }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Predict(get)
	}
}

// byName looks predictor values up in vals.
func byName(vals map[string]float64) func(string) float64 {
	return func(name string) float64 { return vals[name] }
}
