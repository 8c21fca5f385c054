package regression

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// CoefStat is one row of a coefficient significance table: the paper's
// statistically rigorous derivation relies on exactly this kind of
// significance testing to justify which predictors and interactions stay
// in the model.
type CoefStat struct {
	Name     string
	Estimate float64
	StdErr   float64
	T        float64 // Estimate / StdErr
	P        float64 // two-sided p-value with n-p degrees of freedom
}

// Significance returns the coefficient significance table. It is
// available only on freshly fitted models (standard errors require the
// training design matrix); models restored from JSON return an error.
func (m *Model) Significance() ([]CoefStat, error) {
	if m.gramDiag == nil {
		return nil, fmt.Errorf("regression: significance unavailable (model was not fit in this process)")
	}
	df := float64(m.n - len(m.beta))
	if df <= 0 {
		return nil, fmt.Errorf("regression: no residual degrees of freedom")
	}
	out := make([]CoefStat, len(m.beta))
	for j, b := range m.beta {
		se := m.rse * math.Sqrt(m.gramDiag[j])
		cs := CoefStat{Name: m.colNames[j], Estimate: b, StdErr: se}
		if se > 0 {
			cs.T = b / se
			cs.P = stats.StudentTPValue(cs.T, df)
		} else {
			cs.P = math.NaN()
		}
		out[j] = cs
	}
	return out, nil
}

// FStat returns the overall F statistic for the regression (all
// non-intercept coefficients zero) and its p-value.
func (m *Model) FStat() (f, p float64, err error) {
	k := float64(len(m.beta) - 1) // slope coefficients
	df2 := float64(m.n - len(m.beta))
	if k <= 0 || df2 <= 0 {
		return 0, 0, fmt.Errorf("regression: F statistic undefined for this model")
	}
	if m.r2 >= 1 {
		return math.Inf(1), 0, nil
	}
	f = (m.r2 / k) / ((1 - m.r2) / df2)
	return f, stats.FPValue(f, k, df2), nil
}
