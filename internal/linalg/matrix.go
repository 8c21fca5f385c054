// Package linalg implements the small amount of dense numerical linear
// algebra required to fit regression models: a row-major matrix type,
// Householder QR factorization, and least-squares solving. The paper fits
// its models "by numerically solving a system of linear equations"; QR is
// the numerically stable way to do that without forming normal equations.
package linalg

import "fmt"

// Matrix is a dense, row-major matrix of float64 values.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix allocates a zeroed rows x cols matrix. It panics on
// non-positive dimensions.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: NewMatrix(%d, %d) with non-positive dimension", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("linalg: index (%d, %d) out of %dx%d matrix", i, j, m.rows, m.cols))
	}
}

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("linalg: row %d out of %d", i, m.rows))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// MulVec computes m * x for a column vector x of length Cols.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.cols {
		panic(fmt.Sprintf("linalg: MulVec vector length %d, want %d", len(x), m.cols))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: Dot length mismatch")
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
