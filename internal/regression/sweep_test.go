package regression_test

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/regression"
	"repro/internal/rng"
)

// studyFit fits spec to a synthetic response over a uniform sample of
// the sampling space and compiles it against the study space, the way
// the explorer lowers its models.
func studyFit(t testing.TB, spec *regression.Spec, seed uint64) (*regression.Model, *regression.SweepPlan) {
	t.Helper()
	sample := arch.TableOneSpace()
	points := sample.SampleUAR(300, seed)
	names := arch.PredictorNames()
	cols := make([][]float64, len(names))
	y := make([]float64, len(points))
	r := rng.New(seed)
	for i, pt := range points {
		v := arch.Predictors(sample.Config(pt))
		for a := range names {
			cols[a] = append(cols[a], v[a])
		}
		y[i] = 2 + 30/v[0] + 0.2*v[1] + 0.004*v[2] + 0.01*v[3] + 0.05*v[4] +
			0.1*v[5]*v[6]/10 + 0.02*v[1]*v[3]/10 + float64(r.Intn(1000))/20000
	}
	ds := regression.NewDataset(len(points))
	for a, name := range names {
		ds.AddColumn(name, cols[a])
	}
	ds.AddColumn(spec.Response, y)
	m, err := regression.Fit(spec, ds)
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.Compile(names, arch.PredictorLevelValues(arch.ExplorationSpace()))
	if err != nil {
		t.Fatal(err)
	}
	return m, p
}

// outOfOrderSpec lists its terms against axis order, the L2 spline
// first, so every column hoists into the DL1×L2 plane.
func outOfOrderSpec(response string, tr regression.Transform) *regression.Spec {
	return regression.NewSpec(response, tr).
		Spline(arch.PredL2, 3).
		Interact(arch.PredWidth, arch.PredResv).
		Spline(arch.PredDepth, 4).
		Interact(arch.PredRegs, arch.PredIL1).
		Linear(arch.PredWidth).
		Spline(arch.PredDL1, 3).
		Interact(arch.PredDepth, arch.PredDL1).
		Spline(arch.PredRegs, 4).
		Spline(arch.PredResv, 3).
		Spline(arch.PredIL1, 3)
}

// sweepRanges covers [0, size) with consecutive ranges of cycling
// lengths: single points, ranges that start mid-plane, ranges that
// cross one or many 25-point plane boundaries. The last range ends at
// the last flat index.
func sweepRanges(size int) [][2]int {
	lengths := []int{1, 7, 24, 25, 26, 500, 13, 3751, 1, 49, 1000}
	var out [][2]int
	for lo, k := 0, 0; lo < size; k++ {
		hi := min(lo+lengths[k%len(lengths)], size)
		out = append(out, [2]int{lo, hi})
		lo = hi
	}
	return out
}

func TestSweepRangeMatchesPredictLevels(t *testing.T) {
	space := arch.ExplorationSpace()
	levels := arch.PredictorLevelValues(space)
	specs := []struct {
		name      string
		perf, pow core.SpecBuilder
		congruent bool
	}{
		{name: "paper", perf: core.PaperSpec, pow: core.PaperSpec, congruent: true},
		{name: "linear", perf: core.LinearSpec, pow: core.LinearSpec, congruent: true},
		{name: "no-interaction", perf: core.NoInteractionSpec, pow: core.NoInteractionSpec, congruent: true},
		{name: "untransformed", perf: core.UntransformedSpec, pow: core.UntransformedSpec, congruent: true},
		{name: "out-of-order", perf: outOfOrderSpec, pow: outOfOrderSpec, congruent: true},
		{name: "non-congruent", perf: core.PaperSpec, pow: core.NoInteractionSpec},
	}
	n := space.Size()
	out1, out2 := make([]float64, n), make([]float64, n)
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			pm, p := studyFit(t, s.perf(core.ColBIPS, regression.Sqrt), 11)
			wm, q := studyFit(t, s.pow(core.ColWatts, regression.Log), 12)
			if got := p.Congruent(q); got != s.congruent {
				t.Fatalf("Congruent = %v, want %v", got, s.congruent)
			}
			for _, r := range sweepRanges(n) {
				p.SweepRange(q, r[0], out1[r[0]:r[1]], out2[r[0]:r[1]])
			}
			for i := 0; i < n; i++ {
				lv := space.PointAt(i)
				if b, w := p.PredictLevels(lv[:]), q.PredictLevels(lv[:]); out1[i] != b || out2[i] != w {
					t.Fatalf("flat %d %v: sweep (%v, %v), PredictLevels (%v, %v)", i, lv, out1[i], out2[i], b, w)
				}
				if i%997 == 0 {
					get := func(name string) float64 {
						a := arch.PredictorIndex(name)
						return levels[a][lv[a]]
					}
					if b, w := pm.Predict(get), wm.Predict(get); out1[i] != b || out2[i] != w {
						t.Fatalf("flat %d %v: sweep (%v, %v), interpreted (%v, %v)", i, lv, out1[i], out2[i], b, w)
					}
				}
			}
		})
	}
}

func BenchmarkSweepRange(b *testing.B) {
	_, p := studyFit(b, core.PaperSpec(core.ColBIPS, regression.Sqrt), 11)
	_, q := studyFit(b, core.PaperSpec(core.ColWatts, regression.Log), 12)
	n := arch.ExplorationSpace().Size()
	const chunk = 500
	out1, out2 := make([]float64, chunk), make([]float64, chunk)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for lo := 0; lo < n; lo += chunk {
			p.SweepRange(q, lo, out1, out2)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n)/float64(b.N), "ns/point")
}
