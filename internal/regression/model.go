package regression

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/stats"
)

// TermKind distinguishes the three term flavors of the paper's models.
type TermKind int

const (
	// TermLinear enters a predictor untransformed: beta * x.
	TermLinear TermKind = iota
	// TermSpline enters a predictor through a restricted cubic spline
	// basis (paper Section 3.3). If the training data cannot support the
	// requested knot count the term degrades gracefully toward linear.
	TermSpline
	// TermInteraction enters the product of two predictors (paper
	// Section 3.2): beta * x1 * x2.
	TermInteraction
)

// TermSpec describes one model term before fitting.
type TermSpec struct {
	Kind  TermKind
	Var   string // predictor name (Linear, Spline)
	Var2  string // second predictor (Interaction)
	Knots int    // requested knots (Spline)
}

// Spec describes a regression model: the response variable, its transform,
// and the predictor terms. Build one with NewSpec and the fluent helpers,
// then call Fit.
type Spec struct {
	Response  string
	Transform Transform
	Terms     []TermSpec
}

// NewSpec starts a model specification for the given response column.
func NewSpec(response string, t Transform) *Spec {
	return &Spec{Response: response, Transform: t}
}

// Linear adds an untransformed predictor term.
func (s *Spec) Linear(name string) *Spec {
	s.Terms = append(s.Terms, TermSpec{Kind: TermLinear, Var: name})
	return s
}

// Spline adds a restricted-cubic-spline predictor with the requested
// number of knots. The paper uses 4 knots for predictors strongly
// correlated with the response and 3 for weaker ones.
func (s *Spec) Spline(name string, knots int) *Spec {
	s.Terms = append(s.Terms, TermSpec{Kind: TermSpline, Var: name, Knots: knots})
	return s
}

// Interact adds a product interaction term between two predictors.
func (s *Spec) Interact(a, b string) *Spec {
	s.Terms = append(s.Terms, TermSpec{Kind: TermInteraction, Var: a, Var2: b})
	return s
}

// fittedTerm is a term resolved against training data (knots placed).
type fittedTerm struct {
	spec  TermSpec
	knots []float64 // non-nil only for an effective spline
	names []string  // design-matrix column names contributed
}

// appendColumns appends the term's design columns for one observation.
// get fetches a predictor value by name.
func (t *fittedTerm) appendColumns(dst []float64, get func(string) float64) []float64 {
	switch t.spec.Kind {
	case TermLinear:
		return append(dst, get(t.spec.Var))
	case TermSpline:
		if t.knots == nil {
			return append(dst, get(t.spec.Var)) // degraded to linear
		}
		return AppendSplineBasis(dst, get(t.spec.Var), t.knots)
	case TermInteraction:
		return append(dst, get(t.spec.Var)*get(t.spec.Var2))
	default:
		panic(fmt.Sprintf("regression: unknown term kind %d", t.spec.Kind))
	}
}

// Model is a fitted regression model. It is immutable and safe for
// concurrent prediction.
type Model struct {
	spec     Spec
	terms    []fittedTerm
	colNames []string  // design-matrix columns incl. intercept
	beta     []float64 // coefficients, beta[0] = intercept

	// Training diagnostics.
	n         int
	r2, adjR2 float64
	rse       float64 // residual standard error on the transformed scale
	cond      float64 // QR condition estimate

	// Inference artifact; populated by Fit, absent on models restored
	// from JSON (it requires the training design matrix).
	gramDiag []float64 // diagonal of (X'X)^{-1}
}

// Fit resolves the spec against the dataset and estimates coefficients by
// least squares. It returns an error if a referenced column is missing,
// the system is rank deficient, or there are more columns than rows.
func Fit(spec *Spec, data *Dataset) (*Model, error) {
	sp := obs.Begin("regression.fit",
		obs.String("response", spec.Response), obs.Int("n", int64(data.N())))
	defer sp.End()
	if !data.HasColumn(spec.Response) {
		return nil, fmt.Errorf("regression: response column %q not in dataset", spec.Response)
	}
	if len(spec.Terms) == 0 {
		return nil, fmt.Errorf("regression: spec has no terms")
	}
	// Resolve terms: place spline knots from the training distribution.
	terms := make([]fittedTerm, 0, len(spec.Terms))
	for _, ts := range spec.Terms {
		for _, v := range []string{ts.Var, ts.Var2} {
			if v != "" && !data.HasColumn(v) {
				return nil, fmt.Errorf("regression: predictor column %q not in dataset", v)
			}
		}
		ft := fittedTerm{spec: ts}
		switch ts.Kind {
		case TermLinear:
			ft.names = []string{ts.Var}
		case TermSpline:
			ft.knots = Knots(data.Column(ts.Var), ts.Knots)
			if ft.knots == nil {
				ft.names = []string{ts.Var} // degraded
			} else {
				ft.names = splineColumnNames(ts.Var, len(ft.knots))
			}
		case TermInteraction:
			ft.names = []string{ts.Var + ":" + ts.Var2}
		default:
			return nil, fmt.Errorf("regression: unknown term kind %d", ts.Kind)
		}
		terms = append(terms, ft)
	}

	colNames := []string{"(intercept)"}
	for i := range terms {
		colNames = append(colNames, terms[i].names...)
	}
	p := len(colNames)
	n := data.N()
	if n < p {
		return nil, fmt.Errorf("regression: %d observations cannot identify %d coefficients", n, p)
	}

	// Build the design matrix and transformed response.
	x := linalg.NewMatrix(n, p)
	y := make([]float64, n)
	resp := data.Column(spec.Response)
	for i := 0; i < n; i++ {
		get := func(name string) float64 { return data.Column(name)[i] }
		row := x.Row(i)[:0]
		row = append(row, 1)
		for t := range terms {
			row = terms[t].appendColumns(row, get)
		}
		if len(row) != p {
			panic("regression: design row width mismatch")
		}
		y[i] = spec.Transform.Apply(resp[i])
	}

	qr, err := linalg.Factor(x)
	if err != nil {
		return nil, err
	}
	beta, err := qr.Solve(y)
	if err != nil {
		return nil, fmt.Errorf("regression: fitting %q: %w", spec.Response, err)
	}

	m := &Model{
		spec:     *spec,
		terms:    terms,
		colNames: colNames,
		beta:     beta,
		n:        n,
		cond:     qr.ConditionEstimate(),
	}

	// Diagnostics on the transformed scale.
	fitted := x.MulVec(beta)
	ybar := stats.Mean(y)
	var ssTot, ssRes float64
	for i := range y {
		dt := y[i] - ybar
		dr := y[i] - fitted[i]
		ssTot += dt * dt
		ssRes += dr * dr
	}
	if gd, err := qr.GramInverseDiag(); err == nil {
		m.gramDiag = gd
	}
	if ssTot > 0 {
		m.r2 = 1 - ssRes/ssTot
		if n > p {
			m.adjR2 = 1 - (ssRes/float64(n-p))/(ssTot/float64(n-1))
		}
	}
	if n > p {
		m.rse = math.Sqrt(ssRes / float64(n-p))
	}
	return m, nil
}

func splineColumnNames(base string, knots int) []string {
	names := []string{base}
	for j := 1; j <= knots-2; j++ {
		names = append(names, fmt.Sprintf("%s'%d", base, j))
	}
	return names
}

// Response returns the name of the modeled response variable.
func (m *Model) Response() string { return m.spec.Response }

// Predict evaluates the model for predictor values supplied by get and
// returns the prediction on the original response scale. get must return a
// value for every predictor the model's terms name.
func (m *Model) Predict(get func(string) float64) float64 {
	// Stack-allocate the design row for typical model sizes.
	var buf [64]float64
	row := buf[:0]
	row = append(row, 1)
	for t := range m.terms {
		row = m.terms[t].appendColumns(row, get)
	}
	return m.spec.Transform.Inverse(linalg.Dot(row, m.beta))
}

// Summary renders a human-readable coefficient table with diagnostics.
// For freshly fitted models the table includes standard errors, t
// statistics and p-values; restored models show estimates only.
func (m *Model) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "response: %s (%s transform), n=%d, p=%d\n",
		m.spec.Response, m.spec.Transform, m.n, len(m.beta))
	fmt.Fprintf(&b, "R2=%.4f adjR2=%.4f RSE=%.4g cond~%.3g", m.r2, m.adjR2, m.rse, m.cond)
	if f, p, err := m.FStat(); err == nil && !mathIsInf(f) {
		fmt.Fprintf(&b, " F=%.1f (p=%.2g)", f, p)
	}
	b.WriteByte('\n')
	if sig, err := m.Significance(); err == nil {
		fmt.Fprintf(&b, "  %-24s %12s %10s %8s %8s\n", "term", "estimate", "stderr", "t", "p")
		for _, cs := range sig {
			fmt.Fprintf(&b, "  %-24s % 12.5g %10.3g %8.2f %8.2g\n",
				cs.Name, cs.Estimate, cs.StdErr, cs.T, cs.P)
		}
	} else {
		for i, name := range m.colNames {
			fmt.Fprintf(&b, "  %-24s % .6g\n", name, m.beta[i])
		}
	}
	return b.String()
}

func mathIsInf(v float64) bool { return math.IsInf(v, 0) }
