package regression

import (
	"math"
	"strings"
	"testing"

	"repro/internal/rng"
)

// compileFixture fits a model exercising every term kind — an effective
// spline, a linear term, a spline degraded to linear (the predictor has
// only two distinct values), and interactions — on a deterministic
// synthetic dataset whose predictors live on discrete levels.
func compileFixture(t testing.TB, transform Transform) (*Model, []string, [][]float64) {
	t.Helper()
	names := []string{"a", "b", "c"}
	levels := [][]float64{
		{1, 2, 3, 4, 5, 6, 7, 8},
		{10, 20, 30},
		{0, 1}, // two distinct values: spline on c must degrade
	}
	const n = 400
	r := rng.New(99)
	cols := make([][]float64, len(names))
	for i := range cols {
		cols[i] = make([]float64, n)
	}
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a := levels[0][r.Intn(len(levels[0]))]
		b := levels[1][r.Intn(len(levels[1]))]
		c := levels[2][r.Intn(len(levels[2]))]
		cols[0][i], cols[1][i], cols[2][i] = a, b, c
		y[i] = 5 + 0.3*a*a - 0.02*a*a*a + 0.1*b + 0.7*c + 0.01*a*b + float64(r.Intn(100))/1000
	}
	ds := NewDataset(n)
	for i, name := range names {
		ds.AddColumn(name, cols[i])
	}
	ds.AddColumn("y", y)
	spec := NewSpec("y", transform).
		Spline("a", 4).
		Linear("b").
		Spline("c", 3).
		Interact("a", "b").
		Interact("b", "c")
	m, err := Fit(spec, ds)
	if err != nil {
		t.Fatal(err)
	}
	return m, names, levels
}

// planGrid enumerates every level combination of the fixture's grid.
func planGrid(levels [][]float64) [][]int {
	var all [][]int
	lev := make([]int, len(levels))
	var walk func(p int)
	walk = func(p int) {
		if p == len(levels) {
			all = append(all, append([]int(nil), lev...))
			return
		}
		for l := range levels[p] {
			lev[p] = l
			walk(p + 1)
		}
	}
	walk(0)
	return all
}

// levelGetter is the Model.Predict input for the grid point lev.
func levelGetter(t testing.TB, names []string, levels [][]float64, lev []int) func(string) float64 {
	return func(name string) float64 {
		for i, n := range names {
			if n == name {
				return levels[i][lev[i]]
			}
		}
		t.Fatalf("unexpected predictor %q", name)
		return 0
	}
}

func mustCompile(t testing.TB, m *Model, names []string, levels [][]float64) *SweepPlan {
	t.Helper()
	p, err := m.Compile(names, levels)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCompileBitIdenticalToPredict(t *testing.T) {
	for _, tr := range []Transform{Identity, Sqrt, Log} {
		m, names, levels := compileFixture(t, tr)
		p := mustCompile(t, m, names, levels)
		if p.nPred != len(names) {
			t.Fatalf("nPred = %d, want %d", p.nPred, len(names))
		}
		if len(p.cols) != len(m.beta)-1 {
			t.Fatalf("%d plan columns, want %d", len(p.cols), len(m.beta)-1)
		}
		for _, lev := range planGrid(levels) {
			want := m.Predict(levelGetter(t, names, levels, lev))
			if got := p.PredictLevels(lev); got != want {
				t.Fatalf("transform %v, levels %v: plan %v, Predict %v (diff %v)",
					tr, lev, got, want, got-want)
			}
		}
	}
}

func TestCompileLevelPathBitIdentical(t *testing.T) {
	// Levels that are not the values the model was fitted on — fractional,
	// negative, beyond the training range — still give the interpreter's
	// bits: the tables are built from whatever values the layout supplies.
	m, names, _ := compileFixture(t, Sqrt)
	r := rng.New(7)
	levels := make([][]float64, len(names))
	for i := range levels {
		for l := 0; l < 5; l++ {
			levels[i] = append(levels[i], float64(r.Intn(40000))/1000-5)
		}
	}
	p := mustCompile(t, m, names, levels)
	for _, lev := range planGrid(levels) {
		want := m.Predict(levelGetter(t, names, levels, lev))
		if got := p.PredictLevels(lev); got != want {
			t.Fatalf("levels %v: plan %v, Predict %v", lev, got, want)
		}
	}
}

func TestCompileWithoutLevels(t *testing.T) {
	m, names, _ := compileFixture(t, Log)
	if _, err := m.Compile(names, nil); err == nil || !strings.Contains(err.Error(), "level sets") {
		t.Fatalf("Compile without levels: err = %v, want level-set error", err)
	}
}

func TestCompilePartialLevels(t *testing.T) {
	m, names, levels := compileFixture(t, Identity)
	partial := [][]float64{levels[0], nil, levels[2]} // b continuous
	if _, err := m.Compile(names, partial); err == nil || !strings.Contains(err.Error(), `"b" has no levels`) {
		t.Fatalf("Compile with missing levels: err = %v, want missing-levels error", err)
	}
}

func TestCompileRejectsBadLayout(t *testing.T) {
	m, names, levels := compileFixture(t, Identity)
	if _, err := m.Compile([]string{"a", "b"}, levels[:2]); err == nil || !strings.Contains(err.Error(), "not in layout") {
		t.Fatalf("missing predictor: err = %v, want layout error", err)
	}
	if _, err := m.Compile(names, levels[:2]); err == nil {
		t.Fatal("mismatched level-set count accepted")
	}
}

func TestCompileRestoredModel(t *testing.T) {
	// A model restored from JSON must compile and predict identically to
	// the original.
	m, names, levels := compileFixture(t, Log)
	data, err := m.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var restored Model
	if err := restored.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	p0 := mustCompile(t, m, names, levels)
	p1 := mustCompile(t, &restored, names, levels)
	for _, lev := range planGrid(levels) {
		if a, b := p0.PredictLevels(lev), p1.PredictLevels(lev); a != b {
			t.Fatalf("levels %v: original %v, restored %v", lev, a, b)
		}
	}
	if math.IsNaN(p0.PredictLevels([]int{0, 0, 0})) {
		t.Fatal("NaN prediction")
	}
}

func TestPlanBitIdenticalToPredictLevels(t *testing.T) {
	// The fused sweep must give both models exactly their single-point
	// PredictLevels answers for every range of the grid, aligned to its
	// 6-point planes or not.
	m, names, levels := compileFixture(t, Sqrt)
	m2, _, _ := compileFixture(t, Log)
	p, q := mustCompile(t, m, names, levels), mustCompile(t, m2, names, levels)
	if !p.Congruent(q) {
		t.Fatal("plans of one spec over one layout are not congruent")
	}
	grid := planGrid(levels)
	for lo := range grid {
		for hi := lo + 1; hi <= len(grid); hi++ {
			out1, out2 := make([]float64, hi-lo), make([]float64, hi-lo)
			p.SweepRange(q, lo, out1, out2)
			for i, lev := range grid[lo:hi] {
				if out1[i] != p.PredictLevels(lev) || out2[i] != q.PredictLevels(lev) {
					t.Fatalf("range [%d, %d), levels %v: sweep (%v, %v), single (%v, %v)",
						lo, hi, lev, out1[i], out2[i], p.PredictLevels(lev), q.PredictLevels(lev))
				}
			}
		}
	}
}

func TestSweepRangeOutsideLayoutPanics(t *testing.T) {
	m, names, levels := compileFixture(t, Identity)
	p := mustCompile(t, m, names, levels)
	for _, c := range []struct {
		lo, n1, n2 int
	}{{47, 2, 2}, {-1, 1, 1}, {0, 2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SweepRange(lo=%d, %d+%d outputs) on a 48-point grid did not panic", c.lo, c.n1, c.n2)
				}
			}()
			p.SweepRange(p, c.lo, make([]float64, c.n1), make([]float64, c.n2))
		}()
	}
}

func TestPlanRequiresLevels(t *testing.T) {
	m, names, levels := compileFixture(t, Log)
	empty := [][]float64{levels[0], levels[1], {}}
	if _, err := m.Compile(names, empty); err == nil || !strings.Contains(err.Error(), `"c" has no levels`) {
		t.Fatalf("Compile with an empty level set: err = %v, want missing-levels error", err)
	}
}

// planBenchInput builds a deterministic pseudo-random batch of on-grid
// level vectors sized like a sweep chunk.
func planBenchInput(levels [][]float64, n int) [][]int {
	r := rng.New(42)
	lev := make([][]int, n)
	for i := range lev {
		v := make([]int, len(levels))
		for a := range v {
			v[a] = r.Intn(len(levels[a]))
		}
		lev[i] = v
	}
	return lev
}

func BenchmarkPlanPredictScalar(b *testing.B) {
	m, names, levels := compileFixture(b, Sqrt)
	p := mustCompile(b, m, names, levels)
	const chunk = 512
	lev := planBenchInput(levels, chunk)
	out := make([]float64, chunk)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, lv := range lev {
			out[j] = p.PredictLevels(lv)
		}
	}
	b.ReportMetric(float64(chunk)*float64(b.N)/b.Elapsed().Seconds(), "predictions/s")
}
