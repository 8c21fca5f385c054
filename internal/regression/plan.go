package regression

import (
	"fmt"
	"math"
	"slices"

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
// For whole-grid sweeps the plan is also prefix-factored. A column's
// hoist level is the running maximum, in column order, of the highest
// axis it reads, so the columns at one hoist level form a contiguous
// group whose partial sum depends only on the axes up to that level.
// The last two axes span a plane of points contiguous in flat index;
// the columns whose hoist level lies inside it are expanded into plane
// tables, so a plane is a few contiguous adds per column. Each point
// still adds the same table entries in the same order, starting from
// the intercept, so sweep outputs are bit-identical to PredictLevels.
//
// Because the per-point operations (one multiply per column, folded into
// the table; one add per column, performed in the same left-to-right
// order; the same transform inverse) are bit-for-bit the interpreter's,
// plan predictions are bit-identical to Model.Predict at the level
// values. A spec whose columns are not in axis order just hoists less.
//
// A SweepPlan is immutable and safe for concurrent use.
type SweepPlan struct {
	transform Transform
	intercept float64 // beta[0]: the interpreter's 0 + 1*beta[0]
	cols      []planCol
	nPred     int

	// radix[a] is predictor a's level count; a flat index is mixed-radix
	// over radix, predictor 0 most significant. size is their product.
	radix []int
	size  int
	// The plane is the grid over axes plane..nPred-1 (the last two):
	// planeSize points, contiguous in flat index.
	plane, planeSize int
	// hoistEnd[a], for a < plane, is one past the last column of hoist
	// level a; the columns from hoistEnd[plane-1] on are planeCols.
	hoistEnd  []int
	planeCols []planeCol
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

// at is the column's value at the point with levels lv.
func (c *planCol) at(lv []int) float64 {
	if c.stride == 0 {
		return c.table[lv[c.axis]]
	}
	return c.table[lv[c.axis]*c.stride+lv[c.axis2]]
}

// planeCol is a column whose hoist level lies in the plane, expanded
// over it: with off = lv[outer[0]]*mult[0] + lv[outer[1]]*mult[1] for
// the outer (non-plane) axes the column reads, table[off:off+planeSize]
// holds its value at each point of the plane — planeSize values per
// level combination of those axes. Unused outer slots have mult 0.
type planeCol struct {
	table []float64
	outer [2]int
	mult  [2]int
}

// offset is the start of the column's plane table for the outer levels
// in lv.
func (c *planeCol) offset(lv []int) int {
	return lv[c.outer[0]]*c.mult[0] + lv[c.outer[1]]*c.mult[1]
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
	p.factor(levels)
	return p, nil
}

// factor lays the plan out for SweepRange: the level radix, the hoist
// groups, and the plane tables of the columns hoisted into the plane.
func (p *SweepPlan) factor(levels [][]float64) {
	n := len(levels)
	p.radix = make([]int, n)
	p.size = 1
	for a, l := range levels {
		p.radix[a] = len(l)
		p.size *= len(l)
	}
	p.plane = max(n-2, 0)
	p.planeSize = 1
	for _, r := range p.radix[p.plane:] {
		p.planeSize *= r
	}
	p.hoistEnd = make([]int, p.plane)
	level := 0
	for ci := range p.cols {
		level = max(level, p.cols[ci].axis, p.cols[ci].axis2)
		for a := level; a < p.plane; a++ {
			p.hoistEnd[a] = ci + 1
		}
	}
	first := 0
	if p.plane > 0 {
		first = p.hoistEnd[p.plane-1]
	}
	lv := make([]int, n)
	for ci := first; ci < len(p.cols); ci++ {
		c := &p.cols[ci]
		var pc planeCol
		nOuter := 0
		for _, x := range []int{c.axis, c.axis2} {
			if x >= 0 && x < p.plane && (nOuter == 0 || x != pc.outer[0]) {
				pc.outer[nOuter] = x
				nOuter++
			}
		}
		stride := p.planeSize
		for k := nOuter - 1; k >= 0; k-- {
			pc.mult[k] = stride
			stride *= p.radix[pc.outer[k]]
		}
		pc.table = make([]float64, stride)
		for off := range pc.table {
			// off decodes as the outer levels (row-major over outer, in
			// mult order) followed by the plane position.
			rest := off / p.planeSize
			for k := nOuter - 1; k >= 0; k-- {
				x := pc.outer[k]
				lv[x] = rest % p.radix[x]
				rest /= p.radix[x]
			}
			j := off % p.planeSize
			for a := n - 1; a >= p.plane; a-- {
				lv[a] = j % p.radix[a]
				j /= p.radix[a]
			}
			pc.table[off] = c.at(lv)
		}
		p.planeCols = append(p.planeCols, pc)
	}
}

// Congruent reports whether two plans share column structure — the same
// predictor layout (count and levels per predictor) and, column by
// column, the same driving axes, stride and table length — and with it
// the same hoist groups and plane-table shapes. Congruent plans (the
// performance and power models of one benchmark, fitted from one spec
// over one design space) sweep in one fused pass. Coefficients, table
// contents and transforms are free to differ.
func (p *SweepPlan) Congruent(q *SweepPlan) bool {
	if q == nil || p.nPred != q.nPred || len(p.cols) != len(q.cols) || !slices.Equal(p.radix, q.radix) {
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

// SweepRange evaluates p into out1 and q into out2 at the flat indices
// lo, lo+1, ..., lo+len(out1)-1 of the plans' layout: mixed-radix over
// the predictors' level counts, predictor 0 most significant (the order
// of arch.Space.FlatIndex). Every output is bit-identical to
// PredictLevels at that point.
//
// Whole planes run the prefix-factored kernel: the hoisted groups'
// partial sums change only when the odometer carries into their axis,
// and each plane column is one contiguous add over the plane. Congruent
// plans share the walk with two accumulators; a pair that is not
// congruent is swept one plan at a time. Points before the range's
// first plane boundary and after its last one take PredictLevels.
// len(out2) must equal len(out1), and the range must lie in the layout.
func (p *SweepPlan) SweepRange(q *SweepPlan, lo int, out1, out2 []float64) {
	n := len(out1)
	if len(out2) != n || lo < 0 || lo+n > p.size || lo+n > q.size {
		panic(fmt.Sprintf("regression: SweepRange over [%d, %d) with %d+%d outputs in a %d-point layout",
			lo, lo+n, n, len(out2), p.size))
	}
	if n == 0 {
		return
	}
	if p.Congruent(q) {
		sweepRange(p, q, lo, out1, out2)
		return
	}
	// Each plan paired with itself; the second output is discarded.
	spare := make([]float64, n)
	sweepRange(p, p, lo, out1, spare)
	sweepRange(q, q, lo, out2, spare)
}

// sweepRange is SweepRange's kernel for two congruent plans.
func sweepRange(p, q *SweepPlan, lo int, out1, out2 []float64) {
	n := len(out1)
	out2 = out2[:n]
	var lvBuf [16]int
	var partBuf [2 * 16]float64
	lv, part := lvBuf[:], partBuf[:]
	if p.nPred > len(lvBuf) {
		lv, part = make([]int, p.nPred), make([]float64, 2*p.nPred)
	}
	lv = lv[:p.nPred]
	psum, qsum := part[:p.plane], part[p.plane:2*p.plane]
	size := p.planeSize
	i := 0
	// Head: the points before the first plane boundary.
	for ; i < n && (lo+i)%size != 0; i++ {
		p.levelsAt(lo+i, lv)
		out1[i], out2[i] = p.PredictLevels(lv), q.PredictLevels(lv)
	}
	if n-i >= size {
		p.levelsAt(lo+i, lv) // plane axes decode to 0
	}
	// carry is the most significant axis whose level changed since the
	// previous plane: hoist groups from there on are recomputed.
	carry := 0
	pc, qc := p.cols, q.cols[:len(p.cols)]
	pp, qp := p.planeCols, q.planeCols[:len(p.planeCols)]
	for ; n-i >= size; i += size {
		s, t := p.intercept, q.intercept
		if carry > 0 {
			s, t = psum[carry-1], qsum[carry-1]
		}
		for a := carry; a < p.plane; a++ {
			for c := p.hoistStart(a); c < p.hoistEnd[a]; c++ {
				s += pc[c].at(lv)
				t += qc[c].at(lv)
			}
			psum[a], qsum[a] = s, t
		}
		a1, a2 := out1[i:i+size], out2[i:i+size]
		for j := range a1 {
			a1[j], a2[j] = s, t
		}
		// Columns are added two per pass, a[j] = (a[j] + x[j]) + x2[j]:
		// the column order of one add per pass, with half the stores.
		k := 0
		for ; k+2 <= len(pp); k += 2 {
			o, o2 := pp[k].offset(lv), pp[k+1].offset(lv)
			x, y := pp[k].table[o:o+size], qp[k].table[o:o+size]
			x2, y2 := pp[k+1].table[o2:o2+size], qp[k+1].table[o2:o2+size]
			for j := range a1 {
				a1[j] = a1[j] + x[j] + x2[j]
				a2[j] = a2[j] + y[j] + y2[j]
			}
		}
		if k < len(pp) {
			o := pp[k].offset(lv)
			x, y := pp[k].table[o:o+size], qp[k].table[o:o+size]
			for j := range a1 {
				a1[j] += x[j]
				a2[j] += y[j]
			}
		}
		p.transform.inverseAll(a1)
		q.transform.inverseAll(a2)
		// Advance the outer odometer by one plane. Axis 0 runs past its
		// last level only after the layout's last plane, which ends the
		// range.
		carry = p.plane - 1
		for carry > 0 && lv[carry]+1 == p.radix[carry] {
			lv[carry] = 0
			carry--
		}
		if carry >= 0 {
			lv[carry]++
		} else {
			carry = 0
		}
	}
	// Tail: the points after the last whole plane.
	for ; i < n; i++ {
		p.levelsAt(lo+i, lv)
		out1[i], out2[i] = p.PredictLevels(lv), q.PredictLevels(lv)
	}
}

// hoistStart is the first column of hoist group a.
func (p *SweepPlan) hoistStart(a int) int {
	if a == 0 {
		return 0
	}
	return p.hoistEnd[a-1]
}

// levelsAt decodes flat index i of the layout into per-predictor levels.
func (p *SweepPlan) levelsAt(i int, lv []int) {
	for a := p.nPred - 1; a >= 0; a-- {
		lv[a] = i % p.radix[a]
		i /= p.radix[a]
	}
}

// inverseAll applies Inverse to every element of a in place, with one
// transform dispatch for the whole slice.
func (t Transform) inverseAll(a []float64) {
	switch t {
	case Identity:
	case Sqrt:
		for j, v := range a {
			a[j] = v * v
		}
	case Log:
		for j, v := range a {
			a[j] = math.Exp(v)
		}
	default:
		for j, v := range a {
			a[j] = t.Inverse(v)
		}
	}
}

// PredictLevels evaluates the plan for one design point given as
// per-predictor level indices — the per-request entry and SweepRange's
// fallback off plane boundaries. Bit-identical to Model.Predict at the
// level values.
func (p *SweepPlan) PredictLevels(lv []int) float64 {
	a := p.intercept
	cols := p.cols
	for ci := range cols {
		a += cols[ci].at(lv)
	}
	return p.transform.Inverse(a)
}
