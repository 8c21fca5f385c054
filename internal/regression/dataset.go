// Package regression implements the paper's statistical inference engine:
// linear models fit by least squares with restricted cubic spline predictor
// transformations, pairwise interaction terms, and square-root / log
// response transformations (Sections 3.1-3.3 of the paper). It replaces the
// R + Hmisc/Design environment the authors used.
package regression

import (
	"fmt"
	"sort"
)

// Dataset is a column-oriented table of numeric observations. Columns are
// addressed by name; all columns have the same length.
type Dataset struct {
	n    int
	cols map[string][]float64
}

// NewDataset returns an empty dataset expecting columns of length n.
func NewDataset(n int) *Dataset {
	if n <= 0 {
		panic("regression: NewDataset with non-positive n")
	}
	return &Dataset{n: n, cols: make(map[string][]float64)}
}

// N returns the number of observations.
func (d *Dataset) N() int { return d.n }

// AddColumn installs a named column. It panics if the length differs from
// the dataset size or the name is already present.
func (d *Dataset) AddColumn(name string, values []float64) {
	if len(values) != d.n {
		panic(fmt.Sprintf("regression: column %q has %d values, want %d", name, len(values), d.n))
	}
	if _, dup := d.cols[name]; dup {
		panic(fmt.Sprintf("regression: duplicate column %q", name))
	}
	d.cols[name] = values
}

// Column returns the named column. It panics if absent.
func (d *Dataset) Column(name string) []float64 {
	c, ok := d.cols[name]
	if !ok {
		panic(fmt.Sprintf("regression: unknown column %q", name))
	}
	return c
}

// HasColumn reports whether the named column exists.
func (d *Dataset) HasColumn(name string) bool {
	_, ok := d.cols[name]
	return ok
}

// distinctSorted returns the sorted distinct values of a column.
func distinctSorted(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return append([]float64(nil), out...)
}
