package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrRankDeficient is returned when the design matrix does not have full
// column rank, which makes the least-squares problem ill-posed (some
// coefficient combination is unidentifiable from the data).
var ErrRankDeficient = errors.New("linalg: matrix is rank deficient")

// QR holds a Householder QR factorization of an m x n matrix with m >= n.
// The factored matrix is stored compactly: R occupies the upper triangle,
// and the essential parts of the Householder vectors occupy the lower
// trapezoid, with the scalar factors in tau.
type QR struct {
	qr  *Matrix
	tau []float64
}

// Factor computes the QR factorization of a. It does not modify a.
// Factor returns an error if the matrix has more columns than rows.
func Factor(a *Matrix) (*QR, error) {
	m, n := a.Rows(), a.Cols()
	if m < n {
		return nil, fmt.Errorf("linalg: QR needs rows >= cols, have %dx%d", m, n)
	}
	qr := a.Clone()
	tau := make([]float64, n)
	d := qr.data
	for k := 0; k < n; k++ {
		// Norm of the k-th column below (and including) the diagonal,
		// accumulated in place with a running scale so that large entries
		// cannot overflow the sum of squares.
		var scale, ssq float64 = 0, 1
		for i := k; i < m; i++ {
			x := d[i*n+k]
			if x == 0 {
				continue
			}
			ax := math.Abs(x)
			if scale < ax {
				r := scale / ax
				ssq = 1 + ssq*r*r
				scale = ax
			} else {
				r := ax / scale
				ssq += r * r
			}
		}
		norm := scale * math.Sqrt(ssq)
		if norm == 0 {
			tau[k] = 0
			continue
		}
		alpha := d[k*n+k]
		if alpha > 0 {
			norm = -norm
		}
		// Householder vector v = x - norm*e1, stored with v[0] implicit 1.
		v0 := alpha - norm
		d[k*n+k] = norm
		for i := k + 1; i < m; i++ {
			d[i*n+k] /= v0
		}
		tau[k] = -v0 / norm
		// Apply the reflector to the remaining columns:
		// A := (I - tau v v^T) A. Each row is touched through one slice, so
		// the column-k and column-j reads share a single bounds check.
		for j := k + 1; j < n; j++ {
			// s = v^T * A[:,j] with v = [1, qr[k+1:,k]].
			s := d[k*n+j]
			for i := k + 1; i < m; i++ {
				row := d[i*n : i*n+n]
				s += row[k] * row[j]
			}
			s *= tau[k]
			d[k*n+j] -= s
			for i := k + 1; i < m; i++ {
				row := d[i*n : i*n+n]
				row[j] -= s * row[k]
			}
		}
	}
	return &QR{qr: qr, tau: tau}, nil
}

// applyQT overwrites y with Q^T y.
func (f *QR) applyQT(y []float64) {
	m, n := f.qr.Rows(), f.qr.Cols()
	if len(y) != m {
		panic(fmt.Sprintf("linalg: applyQT vector length %d, want %d", len(y), m))
	}
	d := f.qr.data
	for k := 0; k < n; k++ {
		if f.tau[k] == 0 {
			continue
		}
		s := y[k]
		for i := k + 1; i < m; i++ {
			s += d[i*n+k] * y[i]
		}
		s *= f.tau[k]
		y[k] -= s
		for i := k + 1; i < m; i++ {
			y[i] -= s * d[i*n+k]
		}
	}
}

// RDiag returns the absolute values of R's diagonal, useful for rank and
// conditioning diagnostics.
func (f *QR) RDiag() []float64 {
	n := f.qr.Cols()
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		d[i] = math.Abs(f.qr.At(i, i))
	}
	return d
}

// ConditionEstimate returns the ratio of the largest to smallest absolute
// diagonal entry of R, a cheap lower bound on the 2-norm condition number.
// It returns +Inf for a singular R.
func (f *QR) ConditionEstimate() float64 {
	d := f.RDiag()
	lo, hi := d[0], d[0]
	for _, v := range d[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if lo == 0 {
		return math.Inf(1)
	}
	return hi / lo
}

// GramInverseDiag returns the diagonal of (A^T A)^{-1} computed from the
// factorization as R^{-1} R^{-T}: the scale factors of coefficient
// standard errors in least squares. It returns ErrRankDeficient when R is
// singular.
func (f *QR) GramInverseDiag() ([]float64, error) {
	n := f.qr.Cols()
	d := f.RDiag()
	var dmax float64
	for _, v := range d {
		if v > dmax {
			dmax = v
		}
	}
	tol := dmax * 1e-12 * float64(max(f.qr.Rows(), n))
	for _, v := range d {
		if v <= tol {
			return nil, ErrRankDeficient
		}
	}
	// Invert the upper-triangular R column by column: R * x = e_j.
	rinv := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		for i := j; i >= 0; i-- {
			var s float64
			if i == j {
				s = 1
			}
			for k := i + 1; k <= j; k++ {
				s -= f.qr.At(i, k) * rinv.At(k, j)
			}
			rinv.Set(i, j, s/f.qr.At(i, i))
		}
	}
	// (R^{-1} R^{-T})_{jj} = sum_k (R^{-1})_{jk}^2 over k >= j.
	out := make([]float64, n)
	for j := 0; j < n; j++ {
		var s float64
		for k := j; k < n; k++ {
			v := rinv.At(j, k)
			s += v * v
		}
		out[j] = s
	}
	return out, nil
}

// Solve returns the least-squares solution x minimizing ||a*x - y||_2
// where a is the factored matrix. It returns ErrRankDeficient when R has
// a (near-)zero diagonal entry.
func (f *QR) Solve(y []float64) ([]float64, error) {
	m, n := f.qr.Rows(), f.qr.Cols()
	if len(y) != m {
		return nil, fmt.Errorf("linalg: Solve vector length %d, want %d", len(y), m)
	}
	qty := append([]float64(nil), y...)
	f.applyQT(qty)
	// Back substitution on R x = (Q^T y)[:n].
	x := make([]float64, n)
	// Rank tolerance scaled by the largest diagonal magnitude.
	d := f.RDiag()
	var dmax float64
	for _, v := range d {
		if v > dmax {
			dmax = v
		}
	}
	tol := dmax * 1e-12 * float64(max(m, n))
	for i := n - 1; i >= 0; i-- {
		if d[i] <= tol {
			return nil, ErrRankDeficient
		}
		s := qty[i]
		for j := i + 1; j < n; j++ {
			s -= f.qr.At(i, j) * x[j]
		}
		x[i] = s / f.qr.At(i, i)
	}
	return x, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
