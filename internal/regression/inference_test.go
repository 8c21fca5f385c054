package regression

import (
	"math"
	"strings"
	"testing"

	"repro/internal/rng"
)

// fitWithNoise builds y = 2 + 3a + 0b + noise: 'a' strongly significant,
// 'b' pure noise.
func fitWithNoise(t *testing.T, n int) *Model {
	t.Helper()
	r := rng.New(61)
	a := make([]float64, n)
	bcol := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a[i] = r.Float64() * 10
		bcol[i] = r.Float64() * 10
		y[i] = 2 + 3*a[i] + r.NormFloat64()
	}
	d := NewDataset(n)
	d.AddColumn("a", a)
	d.AddColumn("b", bcol)
	d.AddColumn("y", y)
	m, err := Fit(NewSpec("y", Identity).Linear("a").Linear("b"), d)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSignificanceSeparatesSignalFromNoise(t *testing.T) {
	m := fitWithNoise(t, 120)
	sig, err := m.Significance()
	if err != nil {
		t.Fatal(err)
	}
	if len(sig) != 3 {
		t.Fatalf("got %d rows", len(sig))
	}
	byName := map[string]CoefStat{}
	for _, cs := range sig {
		byName[cs.Name] = cs
	}
	if byName["a"].P > 1e-10 {
		t.Fatalf("true predictor p-value = %v, want ~0", byName["a"].P)
	}
	if byName["b"].P < 0.01 {
		t.Fatalf("noise predictor p-value = %v, should not be significant", byName["b"].P)
	}
	if byName["a"].StdErr <= 0 {
		t.Fatal("non-positive standard error")
	}
	if got := byName["a"].T; math.Abs(got-byName["a"].Estimate/byName["a"].StdErr) > 1e-12 {
		t.Fatal("t statistic inconsistent with estimate/stderr")
	}
}

func TestSignificanceStdErrShrinksWithN(t *testing.T) {
	small := fitWithNoise(t, 40)
	large := fitWithNoise(t, 400)
	sigS, err := small.Significance()
	if err != nil {
		t.Fatal(err)
	}
	sigL, err := large.Significance()
	if err != nil {
		t.Fatal(err)
	}
	if sigL[1].StdErr >= sigS[1].StdErr {
		t.Fatalf("stderr should shrink with n: %v -> %v", sigS[1].StdErr, sigL[1].StdErr)
	}
}

func TestFStat(t *testing.T) {
	m := fitWithNoise(t, 100)
	f, p, err := m.FStat()
	if err != nil {
		t.Fatal(err)
	}
	if f <= 10 {
		t.Fatalf("F = %v, expected a strongly significant regression", f)
	}
	if p > 1e-10 {
		t.Fatalf("F p-value = %v", p)
	}
}

func TestSummaryIncludesInference(t *testing.T) {
	m := fitWithNoise(t, 90)
	s := m.Summary()
	for _, want := range []string{"stderr", "t", "p", "F="} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestFStatDegenerate(t *testing.T) {
	// Saturated model: no residual degrees of freedom.
	d := NewDataset(2)
	d.AddColumn("x", []float64{1, 2})
	d.AddColumn("y", []float64{3, 5})
	m, err := Fit(NewSpec("y", Identity).Linear("x"), d)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.FStat(); err == nil {
		t.Fatal("F statistic computed without residual degrees of freedom")
	}
	if _, err := m.Significance(); err == nil {
		t.Fatal("significance computed without residual degrees of freedom")
	}
}
