package linalg

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 5)
	if m.At(0, 0) != 1 || m.At(1, 2) != 5 || m.At(0, 1) != 0 {
		t.Fatal("Set/At round trip failed")
	}
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatal("dimensions wrong")
	}
}

func TestMatrixPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewMatrix(0, 1) },
		func() { NewMatrix(1, -1) },
		func() { NewMatrix(1, 1).At(1, 0) },
		func() { NewMatrix(1, 1).Set(0, 2, 1) },
		func() { NewMatrix(2, 2).MulVec([]float64{1}) },
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

func TestMulVec(t *testing.T) {
	m := fromRows([][]float64{{1, 2}, {3, 4}})
	got := m.MulVec([]float64{1, 1})
	if got[0] != 3 || got[1] != 7 {
		t.Fatalf("MulVec = %v", got)
	}
}

func TestCloneIndependent(t *testing.T) {
	m := fromRows([][]float64{{1, 2}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone aliases original")
	}
}

func TestDotNorm(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("Dot wrong")
	}
}

func TestLeastSquaresExact(t *testing.T) {
	// Square, well-conditioned system: solution should be exact.
	a := fromRows([][]float64{
		{2, 1},
		{1, 3},
	})
	want := []float64{1.5, -0.5}
	y := a.MulVec(want)
	x, err := solve(a, y)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

func TestLeastSquaresOverdetermined(t *testing.T) {
	// Fit a line y = 2 + 3x through noisy points; with symmetric noise the
	// recovered coefficients should be near-exact.
	xs := []float64{0, 1, 2, 3, 4, 5}
	noise := []float64{0.1, -0.1, 0.1, -0.1, 0.1, -0.1}
	rows := make([][]float64, len(xs))
	y := make([]float64, len(xs))
	for i, x := range xs {
		rows[i] = []float64{1, x}
		y[i] = 2 + 3*x + noise[i]
	}
	beta, err := solve(fromRows(rows), y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(beta[0]-2) > 0.1 || math.Abs(beta[1]-3) > 0.05 {
		t.Fatalf("beta = %v, want ~[2 3]", beta)
	}
}

func TestLeastSquaresResidualOrthogonality(t *testing.T) {
	// The least-squares residual must be orthogonal to the column space.
	r := rng.New(99)
	const m, n = 40, 5
	a := NewMatrix(m, n)
	y := make([]float64, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, r.NormFloat64())
		}
		y[i] = r.NormFloat64()
	}
	x, err := solve(a, y)
	if err != nil {
		t.Fatal(err)
	}
	pred := a.MulVec(x)
	resid := make([]float64, m)
	for i := range y {
		resid[i] = y[i] - pred[i]
	}
	for j := 0; j < n; j++ {
		var g float64
		for i := range resid {
			g += a.At(i, j) * resid[i]
		}
		if math.Abs(g) > 1e-9 {
			t.Fatalf("residual not orthogonal to column %d: %v", j, g)
		}
	}
}

func TestRankDeficientDetected(t *testing.T) {
	// Second column is a multiple of the first.
	a := fromRows([][]float64{
		{1, 2},
		{2, 4},
		{3, 6},
	})
	_, err := solve(a, []float64{1, 2, 3})
	if !errors.Is(err, ErrRankDeficient) {
		t.Fatalf("err = %v, want ErrRankDeficient", err)
	}
}

func TestFactorRejectsWide(t *testing.T) {
	if _, err := Factor(NewMatrix(2, 3)); err == nil {
		t.Fatal("Factor accepted wide matrix")
	}
}

func TestSolveLengthMismatch(t *testing.T) {
	f, err := Factor(fromRows([][]float64{{1}, {1}}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Solve([]float64{1}); err == nil {
		t.Fatal("Solve accepted wrong-length vector")
	}
}

func TestConditionEstimate(t *testing.T) {
	identity := fromRows([][]float64{{1, 0}, {0, 1}})
	f, err := Factor(identity)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.ConditionEstimate(); math.Abs(got-1) > 1e-12 {
		t.Fatalf("cond(I) = %v, want 1", got)
	}
	illCond := fromRows([][]float64{{1, 0}, {0, 1e-9}})
	f2, err := Factor(illCond)
	if err != nil {
		t.Fatal(err)
	}
	if got := f2.ConditionEstimate(); got < 1e8 {
		t.Fatalf("cond = %v, want >= 1e8", got)
	}
}

// Property: for random well-conditioned systems, solving A x = A x0
// recovers x0.
func TestQuickQRRecoversSolution(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		const m, n = 20, 4
		a := NewMatrix(m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, r.NormFloat64())
			}
		}
		x0 := make([]float64, n)
		for j := range x0 {
			x0[j] = r.NormFloat64() * 10
		}
		y := a.MulVec(x0)
		x, err := solve(a, y)
		if err != nil {
			// Random Gaussian matrices are almost surely full rank;
			// treat rank deficiency as failure.
			return false
		}
		for j := range x0 {
			if math.Abs(x[j]-x0[j]) > 1e-8*(1+math.Abs(x0[j])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkQRFactorSolve(b *testing.B) {
	r := rng.New(1)
	const m, n = 1000, 30
	a := NewMatrix(m, n)
	y := make([]float64, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, r.NormFloat64())
		}
		y[i] = r.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solve(a, y); err != nil {
			b.Fatal(err)
		}
	}
}

func TestGramInverseDiagAgainstDirectInverse(t *testing.T) {
	// For X = [[1,0],[0,2],[1,1]], X'X = [[2,1],[1,5]] and
	// (X'X)^{-1} = 1/9 * [[5,-1],[-1,2]] with diagonal {5/9, 2/9}.
	x := fromRows([][]float64{{1, 0}, {0, 2}, {1, 1}})
	f, err := Factor(x)
	if err != nil {
		t.Fatal(err)
	}
	d, err := f.GramInverseDiag()
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{5.0 / 9, 2.0 / 9}
	for i := range want {
		if math.Abs(d[i]-want[i]) > 1e-12 {
			t.Fatalf("diag = %v, want %v", d, want)
		}
	}
}

func TestGramInverseDiagRandomConsistency(t *testing.T) {
	// Cross-check against explicit (X'X)^{-1} computed by solving
	// (X'X) z = e_j with the same QR machinery on the Gram matrix.
	r := rng.New(7)
	const m, n = 30, 4
	x := NewMatrix(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			x.Set(i, j, r.NormFloat64())
		}
	}
	f, err := Factor(x)
	if err != nil {
		t.Fatal(err)
	}
	d, err := f.GramInverseDiag()
	if err != nil {
		t.Fatal(err)
	}
	gram := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		for k := 0; k < n; k++ {
			var g float64
			for i := 0; i < m; i++ {
				g += x.At(i, j) * x.At(i, k)
			}
			gram.Set(j, k, g)
		}
	}
	for j := 0; j < n; j++ {
		e := make([]float64, n)
		e[j] = 1
		z, err := solve(gram, e)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(z[j]-d[j]) > 1e-8*(1+math.Abs(z[j])) {
			t.Fatalf("diag[%d] = %v, direct inverse gives %v", j, d[j], z[j])
		}
	}
}

func TestGramInverseDiagRankDeficient(t *testing.T) {
	x := fromRows([][]float64{{1, 2}, {2, 4}, {3, 6}})
	f, err := Factor(x)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.GramInverseDiag(); !errors.Is(err, ErrRankDeficient) {
		t.Fatalf("err = %v, want ErrRankDeficient", err)
	}
}

func TestRowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Row out of range did not panic")
		}
	}()
	NewMatrix(2, 2).Row(5)
}

// BenchmarkFactor measures the factorization alone at regression-fit
// scale (a training design matrix is ~1000 samples x ~100 terms); the
// reflector loops dominate, so this tracks the hot kernel directly.
func BenchmarkFactor(b *testing.B) {
	r := rng.New(1)
	const m, n = 1000, 100
	a := NewMatrix(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, r.NormFloat64())
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Factor(a); err != nil {
			b.Fatal(err)
		}
	}
}

// fromRows builds a matrix from equal-length row literals.
func fromRows(rows [][]float64) *Matrix {
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		for j, v := range r {
			m.Set(i, j, v)
		}
	}
	return m
}

// solve factors a and solves for y.
func solve(a *Matrix, y []float64) ([]float64, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(y)
}
