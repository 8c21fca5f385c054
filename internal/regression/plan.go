package regression

import (
	"fmt"
	"math"

	"repro/internal/obs"
)

// SweepPlan is a fitted Model lowered for evaluation on a discrete
// grid: one flat premultiplied lookup table per design column, indexed
// by predictor level. Each column's basis value and its coefficient are
// collapsed into a single precomputed product — table[l] =
// basis(level l) * beta[j], computed at compile time with exactly the
// multiply linalg.Dot would perform — so evaluating a point is nothing
// but len(beta)-1 table loads and adds into one accumulator, in the
// interpreter's column order.
//
// Because the per-point operations (one multiply per column, folded into
// the table; one add per column, performed in the same left-to-right
// order; the same transform inverse) are bit-for-bit the interpreter's,
// plan predictions are bit-identical to Model.Predict at the level
// values — regardless of block size, since blocking interleaves the
// accumulation chains of *distinct* points without reordering any
// point's own chain.
//
// A SweepPlan is immutable and safe for concurrent use.
type SweepPlan struct {
	transform Transform
	intercept float64 // beta[0]: the interpreter's 0 + 1*beta[0]
	cols      []planCol
	nPred     int
}

// planCol is one design column of the plan: a level-indexed table of
// coefficient-premultiplied basis values. Linear and spline columns are
// driven by a single axis (stride == 0, table[l]); interaction columns
// are driven by two (stride == len(levels[axis2]), table[l1*stride+l2],
// with table entries (v1*v2)*beta — the interpreter's multiply order).
type planCol struct {
	table  []float64
	axis   int
	axis2  int
	stride int
}

// Compile lowers the model into its sweep plan against a predictor
// layout: names[i] is the predictor at index i of every level vector the
// plan evaluates, and levels[i] lists the discrete values predictor i
// takes. Every predictor the model references must appear in names and
// have at least one level.
func (m *Model) Compile(names []string, levels [][]float64) (*SweepPlan, error) {
	sp := obs.Begin("regression.compile",
		obs.String("response", m.spec.Response), obs.Int("predictors", int64(len(names))))
	defer sp.End()
	if len(levels) != len(names) {
		return nil, fmt.Errorf("regression: %d level sets for %d predictors", len(levels), len(names))
	}
	index := make(map[string]int, len(names))
	for i, n := range names {
		index[n] = i
	}
	resolve := func(name string) (int, []float64, error) {
		i, ok := index[name]
		if !ok {
			return 0, nil, fmt.Errorf("regression: compiling %q: predictor %q not in layout", m.spec.Response, name)
		}
		if len(levels[i]) == 0 {
			return 0, nil, fmt.Errorf("regression: compiling %q: predictor %q has no levels", m.spec.Response, name)
		}
		return i, levels[i], nil
	}
	p := &SweepPlan{
		transform: m.spec.Transform,
		intercept: m.beta[0],
		cols:      make([]planCol, 0, len(m.beta)-1),
		nPred:     len(names),
	}
	// Fit and UnmarshalJSON guarantee one coefficient per design column,
	// so the coefficient of column c is beta[c+1].
	var buf [64]float64
	for ti := range m.terms {
		t := &m.terms[ti]
		a, la, err := resolve(t.spec.Var)
		if err != nil {
			return nil, err
		}
		j := len(p.cols) + 1 // coefficient of the term's first column
		if t.spec.Kind == TermInteraction {
			b, lb, err := resolve(t.spec.Var2)
			if err != nil {
				return nil, err
			}
			tab := make([]float64, len(la)*len(lb))
			for x, va := range la {
				for y, vb := range lb {
					// The interpreter's column is va*vb, multiplied by
					// beta[j] inside linalg.Dot; same order here.
					tab[x*len(lb)+y] = (va * vb) * m.beta[j]
				}
			}
			p.cols = append(p.cols, planCol{table: tab, axis: a, axis2: b, stride: len(lb)})
			continue
		}
		// The interpreter's own column builder, fed each level value in
		// turn, gives every table entry the interpreter's bits.
		for l, v := range la {
			row := t.appendColumns(buf[:0], func(string) float64 { return v })
			if l == 0 {
				for range row {
					p.cols = append(p.cols, planCol{table: make([]float64, len(la)), axis: a, axis2: -1})
				}
			}
			for w, x := range row {
				p.cols[j-1+w].table[l] = x * m.beta[j+w]
			}
		}
	}
	return p, nil
}

// NumPredictors returns the predictor-vector length the plan was laid
// out against (the length each level vector must have).
func (p *SweepPlan) NumPredictors() int { return p.nPred }

// NumColumns returns the number of non-intercept design columns.
func (p *SweepPlan) NumColumns() int { return len(p.cols) }

// PlanBlock is the point count PredictBlock processes per unrolled
// iteration. Eight independent accumulation chains are enough to hide
// the floating-point add latency that serializes a one-point loop
// (each chain is a strict left-to-right dependency, so a single point
// can never saturate the FP units).
const PlanBlock = 8

// PredictBlock evaluates the plan for len(out) design points, where
// lev[i] holds point i's per-predictor level indices, writing the
// response-scale prediction for point i into out[i]. Points are
// processed in blocks of PlanBlock with the per-column table and axis
// loads hoisted out of the unrolled point loop; the remainder runs the
// same per-point operation sequence one point at a time, so every
// point's result is bit-identical to PredictLevels no matter how the
// caller sizes or aligns the batch.
func (p *SweepPlan) PredictBlock(lev [][]int, out []float64) {
	n := len(out)
	if len(lev) < n {
		panic(fmt.Sprintf("regression: PredictBlock with %d level vectors for %d outputs", len(lev), n))
	}
	cols := p.cols
	base := 0
	for ; base+PlanBlock <= n; base += PlanBlock {
		l0, l1, l2, l3 := lev[base], lev[base+1], lev[base+2], lev[base+3]
		l4, l5, l6, l7 := lev[base+4], lev[base+5], lev[base+6], lev[base+7]
		a0, a1, a2, a3 := p.intercept, p.intercept, p.intercept, p.intercept
		a4, a5, a6, a7 := p.intercept, p.intercept, p.intercept, p.intercept
		for ci := range cols {
			c := &cols[ci]
			t, ax := c.table, c.axis
			if c.stride == 0 {
				a0 += t[l0[ax]]
				a1 += t[l1[ax]]
				a2 += t[l2[ax]]
				a3 += t[l3[ax]]
				a4 += t[l4[ax]]
				a5 += t[l5[ax]]
				a6 += t[l6[ax]]
				a7 += t[l7[ax]]
			} else {
				s, ax2 := c.stride, c.axis2
				a0 += t[l0[ax]*s+l0[ax2]]
				a1 += t[l1[ax]*s+l1[ax2]]
				a2 += t[l2[ax]*s+l2[ax2]]
				a3 += t[l3[ax]*s+l3[ax2]]
				a4 += t[l4[ax]*s+l4[ax2]]
				a5 += t[l5[ax]*s+l5[ax2]]
				a6 += t[l6[ax]*s+l6[ax2]]
				a7 += t[l7[ax]*s+l7[ax2]]
			}
		}
		// One transform dispatch per block, not per point; the applied
		// operation per point is exactly Transform.Inverse's.
		switch p.transform {
		case Identity:
			out[base+0], out[base+1], out[base+2], out[base+3] = a0, a1, a2, a3
			out[base+4], out[base+5], out[base+6], out[base+7] = a4, a5, a6, a7
		case Sqrt:
			out[base+0], out[base+1], out[base+2], out[base+3] = a0*a0, a1*a1, a2*a2, a3*a3
			out[base+4], out[base+5], out[base+6], out[base+7] = a4*a4, a5*a5, a6*a6, a7*a7
		case Log:
			out[base+0], out[base+1], out[base+2], out[base+3] = math.Exp(a0), math.Exp(a1), math.Exp(a2), math.Exp(a3)
			out[base+4], out[base+5], out[base+6], out[base+7] = math.Exp(a4), math.Exp(a5), math.Exp(a6), math.Exp(a7)
		default:
			out[base+0], out[base+1], out[base+2], out[base+3] =
				p.transform.Inverse(a0), p.transform.Inverse(a1), p.transform.Inverse(a2), p.transform.Inverse(a3)
			out[base+4], out[base+5], out[base+6], out[base+7] =
				p.transform.Inverse(a4), p.transform.Inverse(a5), p.transform.Inverse(a6), p.transform.Inverse(a7)
		}
	}
	for ; base < n; base++ {
		out[base] = p.PredictLevels(lev[base])
	}
}

// Congruent reports whether two plans share column structure — same
// predictor count and, column by column, the same driving axes, stride
// and table length. Congruent plans (e.g. the performance and power
// models of one benchmark, fitted from one spec over one design space)
// can be evaluated by the fused PredictBlockPair kernel, which loads
// each point's level indices once for both models. Coefficients, table
// contents and transforms are free to differ.
func (p *SweepPlan) Congruent(q *SweepPlan) bool {
	if q == nil || p.nPred != q.nPred || len(p.cols) != len(q.cols) {
		return false
	}
	for i := range p.cols {
		a, b := &p.cols[i], &q.cols[i]
		if a.axis != b.axis || a.axis2 != b.axis2 || a.stride != b.stride || len(a.table) != len(b.table) {
			return false
		}
	}
	return true
}

// pairBlock is the point count PredictBlockPair processes per unrolled
// iteration. Eight points across two models give sixteen independent
// accumulation chains; the accumulators overflow the sixteen
// architectural vector registers, but the spills are cheap stack
// traffic and measured throughput beats the narrower four-point
// variant — each loaded level index feeds two table loads, so wider
// blocks amortize more index loads per memory access.
const pairBlock = 8

// PredictBlockPair evaluates two congruent plans over one shared batch
// of level vectors: out1[i] is p's prediction and out2[i] is q's for
// the point lev[i]. Each level index is loaded once and indexes both
// models' column tables, halving the index traffic of two PredictBlock
// passes. Per point and per model the operation sequence is exactly
// PredictLevels', so both outputs are bit-identical to it.
// Callers must ensure p.Congruent(q); len(out2) and len(lev) must be at
// least len(out1).
func (p *SweepPlan) PredictBlockPair(q *SweepPlan, lev [][]int, out1, out2 []float64) {
	n := len(out1)
	if len(out2) < n || len(lev) < n {
		panic(fmt.Sprintf("regression: PredictBlockPair with %d level vectors, %d+%d outputs", len(lev), n, len(out2)))
	}
	// Reslicing to exact lengths lets the compiler hoist the qc[ci],
	// lev[base+i] and out[base+i] bounds checks out of the hot loops.
	pc := p.cols
	qc := q.cols[:len(p.cols)]
	lev = lev[:n]
	out1 = out1[:n]
	out2 = out2[:n]
	base := 0
	for ; base+pairBlock <= n; base += pairBlock {
		l0, l1, l2, l3 := lev[base], lev[base+1], lev[base+2], lev[base+3]
		l4, l5, l6, l7 := lev[base+4], lev[base+5], lev[base+6], lev[base+7]
		a0, a1, a2, a3 := p.intercept, p.intercept, p.intercept, p.intercept
		a4, a5, a6, a7 := p.intercept, p.intercept, p.intercept, p.intercept
		b0, b1, b2, b3 := q.intercept, q.intercept, q.intercept, q.intercept
		b4, b5, b6, b7 := q.intercept, q.intercept, q.intercept, q.intercept
		for ci := range pc {
			c := &pc[ci]
			t, u := c.table, qc[ci].table
			ax := c.axis
			var i0, i1, i2, i3, i4, i5, i6, i7 int
			if c.stride == 0 {
				i0, i1, i2, i3 = l0[ax], l1[ax], l2[ax], l3[ax]
				i4, i5, i6, i7 = l4[ax], l5[ax], l6[ax], l7[ax]
			} else {
				s, ax2 := c.stride, c.axis2
				i0 = l0[ax]*s + l0[ax2]
				i1 = l1[ax]*s + l1[ax2]
				i2 = l2[ax]*s + l2[ax2]
				i3 = l3[ax]*s + l3[ax2]
				i4 = l4[ax]*s + l4[ax2]
				i5 = l5[ax]*s + l5[ax2]
				i6 = l6[ax]*s + l6[ax2]
				i7 = l7[ax]*s + l7[ax2]
			}
			a0 += t[i0]
			a1 += t[i1]
			a2 += t[i2]
			a3 += t[i3]
			a4 += t[i4]
			a5 += t[i5]
			a6 += t[i6]
			a7 += t[i7]
			b0 += u[i0]
			b1 += u[i1]
			b2 += u[i2]
			b3 += u[i3]
			b4 += u[i4]
			b5 += u[i5]
			b6 += u[i6]
			b7 += u[i7]
		}
		switch p.transform {
		case Identity:
			out1[base+0], out1[base+1], out1[base+2], out1[base+3] = a0, a1, a2, a3
			out1[base+4], out1[base+5], out1[base+6], out1[base+7] = a4, a5, a6, a7
		case Sqrt:
			out1[base+0], out1[base+1], out1[base+2], out1[base+3] = a0*a0, a1*a1, a2*a2, a3*a3
			out1[base+4], out1[base+5], out1[base+6], out1[base+7] = a4*a4, a5*a5, a6*a6, a7*a7
		case Log:
			out1[base+0], out1[base+1], out1[base+2], out1[base+3] = math.Exp(a0), math.Exp(a1), math.Exp(a2), math.Exp(a3)
			out1[base+4], out1[base+5], out1[base+6], out1[base+7] = math.Exp(a4), math.Exp(a5), math.Exp(a6), math.Exp(a7)
		default:
			out1[base+0], out1[base+1], out1[base+2], out1[base+3] =
				p.transform.Inverse(a0), p.transform.Inverse(a1), p.transform.Inverse(a2), p.transform.Inverse(a3)
			out1[base+4], out1[base+5], out1[base+6], out1[base+7] =
				p.transform.Inverse(a4), p.transform.Inverse(a5), p.transform.Inverse(a6), p.transform.Inverse(a7)
		}
		switch q.transform {
		case Identity:
			out2[base+0], out2[base+1], out2[base+2], out2[base+3] = b0, b1, b2, b3
			out2[base+4], out2[base+5], out2[base+6], out2[base+7] = b4, b5, b6, b7
		case Sqrt:
			out2[base+0], out2[base+1], out2[base+2], out2[base+3] = b0*b0, b1*b1, b2*b2, b3*b3
			out2[base+4], out2[base+5], out2[base+6], out2[base+7] = b4*b4, b5*b5, b6*b6, b7*b7
		case Log:
			out2[base+0], out2[base+1], out2[base+2], out2[base+3] = math.Exp(b0), math.Exp(b1), math.Exp(b2), math.Exp(b3)
			out2[base+4], out2[base+5], out2[base+6], out2[base+7] = math.Exp(b4), math.Exp(b5), math.Exp(b6), math.Exp(b7)
		default:
			out2[base+0], out2[base+1], out2[base+2], out2[base+3] =
				q.transform.Inverse(b0), q.transform.Inverse(b1), q.transform.Inverse(b2), q.transform.Inverse(b3)
			out2[base+4], out2[base+5], out2[base+6], out2[base+7] =
				q.transform.Inverse(b4), q.transform.Inverse(b5), q.transform.Inverse(b6), q.transform.Inverse(b7)
		}
	}
	for ; base < n; base++ {
		out1[base] = p.PredictLevels(lev[base])
		out2[base] = q.PredictLevels(lev[base])
	}
}

// PredictLevels evaluates the plan for one design point given as
// per-predictor level indices — the scalar tail of PredictBlock and the
// per-request entry. Bit-identical to Model.Predict at the level values.
func (p *SweepPlan) PredictLevels(lv []int) float64 {
	a := p.intercept
	cols := p.cols
	for ci := range cols {
		c := &cols[ci]
		if c.stride == 0 {
			a += c.table[lv[c.axis]]
		} else {
			a += c.table[lv[c.axis]*c.stride+lv[c.axis2]]
		}
	}
	return p.transform.Inverse(a)
}
