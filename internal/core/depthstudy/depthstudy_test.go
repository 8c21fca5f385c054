package depthstudy

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
)

var shared *core.Explorer

func testExplorer(t *testing.T) *core.Explorer {
	t.Helper()
	if shared != nil {
		return shared
	}
	opts := core.DefaultOptions()
	opts.TrainSamples = 180
	opts.TraceLen = 20000
	opts.Benchmarks = []string{"gzip", "mesa"}
	e, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Train(); err != nil {
		t.Fatal(err)
	}
	shared = e
	return e
}

func TestRunStructure(t *testing.T) {
	e := testExplorer(t)
	res, err := Run(e, "gzip", Options{})
	if err != nil {
		t.Fatal(err)
	}
	depths := e.StudySpace.DepthLevels()
	if len(res.Rows) != len(depths) {
		t.Fatalf("rows = %d, want %d", len(res.Rows), len(depths))
	}
	for i, row := range res.Rows {
		if row.DepthFO4 != depths[i] {
			t.Fatalf("row %d depth = %d, want %d", i, row.DepthFO4, depths[i])
		}
		if row.EffBox.N != 37500 {
			t.Fatalf("boxplot population = %d, want 37500", row.EffBox.N)
		}
		if row.OriginalModelEff <= 0 || row.BoundModelEff <= 0 {
			t.Fatal("non-positive efficiency")
		}
		if row.FracBeatsBaseline < 0 || row.FracBeatsBaseline > 1 {
			t.Fatalf("FracBeatsBaseline = %v", row.FracBeatsBaseline)
		}
	}
}

func TestOriginalOptimumInterior(t *testing.T) {
	// The paper's central depth finding: the bips^3/w-optimal depth is
	// interior (18 FO4 there), a plateau rather than an endpoint.
	e := testExplorer(t)
	res, err := Run(e, "mesa", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.OriginalBestDepth == 12 || res.OriginalBestDepth == 30 {
		t.Fatalf("optimal depth %d is at the boundary", res.OriginalBestDepth)
	}
}

func TestBoundBeatsOriginal(t *testing.T) {
	// The enhanced analysis' per-depth best design must be at least as
	// efficient as the constrained original design at that depth: the
	// original configuration is inside the searched set.
	e := testExplorer(t)
	res, err := Run(e, "gzip", Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		// Allow a sliver of slack: the baseline's depth 19 is off-grid,
		// but per-depth rows share the same grid so Bound >= Original
		// should hold outright.
		if row.BoundModelEff < row.OriginalModelEff*0.999 {
			t.Fatalf("at %d FO4 bound eff %v below original %v",
				row.DepthFO4, row.BoundModelEff, row.OriginalModelEff)
		}
	}
}

func TestDL1HistogramNormalized(t *testing.T) {
	e := testExplorer(t)
	res, err := Run(e, "mesa", Options{})
	if err != nil {
		t.Fatal(err)
	}
	sizes := e.StudySpace.DL1Levels()
	for _, row := range res.Rows {
		var sum float64
		for kb, frac := range row.DL1Histogram {
			if frac < 0 || frac > 1 {
				t.Fatalf("fraction %v out of range", frac)
			}
			found := false
			for _, s := range sizes {
				if s == kb {
					found = true
				}
			}
			if !found {
				t.Fatalf("histogram key %d KB not a D-L1 level", kb)
			}
			sum += frac
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("histogram sums to %v", sum)
		}
	}
}

func TestValidationPopulatesSimulatedRows(t *testing.T) {
	e := testExplorer(t)
	res, err := Run(e, "gzip", Options{SimulateValidation: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.OriginalSimEff <= 0 || row.BoundSimEff <= 0 {
			t.Fatalf("missing simulated efficiency at %d FO4", row.DepthFO4)
		}
		if row.OriginalSimBIPS <= 0 || row.BoundSimWatts <= 0 {
			t.Fatal("missing simulated components")
		}
	}
}

func TestTopPercentileValidation(t *testing.T) {
	e := testExplorer(t)
	if _, err := Run(e, "gzip", Options{TopPercentile: 1.5}); err == nil {
		t.Fatal("TopPercentile > 1 accepted")
	}
	if _, err := Run(e, "gzip", Options{TopPercentile: -0.1}); err == nil {
		t.Fatal("negative TopPercentile accepted")
	}
}

func TestAverageAggregation(t *testing.T) {
	e := testExplorer(t)
	results, err := RunSuite(e, Options{SimulateValidation: true})
	if err != nil {
		t.Fatal(err)
	}
	avg, err := Average(results)
	if err != nil {
		t.Fatal(err)
	}
	if len(avg.Depths) != 7 {
		t.Fatalf("depth axis = %v", avg.Depths)
	}
	// The original curve is normalized: its max must be ~1.
	maxOrig := 0.0
	for _, v := range avg.OriginalRel {
		if v <= 0 || v > 1+1e-9 {
			t.Fatalf("OriginalRel value %v out of (0,1]", v)
		}
		if v > maxOrig {
			maxOrig = v
		}
	}
	if math.Abs(maxOrig-1) > 1e-9 {
		t.Fatalf("OriginalRel max = %v, want 1", maxOrig)
	}
	// Simulated curves present and normalized.
	maxSim := 0.0
	for _, v := range avg.OriginalSimRel {
		if v > maxSim {
			maxSim = v
		}
	}
	if math.Abs(maxSim-1) > 1e-9 {
		t.Fatalf("OriginalSimRel max = %v, want 1", maxSim)
	}
	// Best depths must be levels of the axis.
	onAxis := func(d int) bool {
		for _, v := range avg.Depths {
			if v == d {
				return true
			}
		}
		return false
	}
	if !onAxis(avg.BestOriginalDepth) || !onAxis(avg.BestBoundDepth) {
		t.Fatalf("best depths %d/%d not on axis", avg.BestOriginalDepth, avg.BestBoundDepth)
	}
}

// syntheticSuite builds per-benchmark results with seeded random
// efficiencies: enough benchmarks that the order of the geometric means'
// log sums shows in their last bits.
func syntheticSuite() []*Result {
	r := rand.New(rand.NewSource(7))
	var out []*Result
	for b := 0; b < 9; b++ {
		res := &Result{Benchmark: fmt.Sprintf("bench%d", b), OriginalBestEff: 1 + r.Float64()}
		for _, d := range []int{12, 15, 18, 21, 24, 27, 30} {
			q1 := 0.3 + r.Float64()
			res.Rows = append(res.Rows, DepthRow{
				DepthFO4:          d,
				OriginalModelEff:  0.5 + r.Float64(),
				BoundModelEff:     0.5 + 2*r.Float64(),
				EffBox:            stats.Boxplot{Q1: q1, Med: q1 + r.Float64(), Q3: q1 + 1 + r.Float64(), Max: q1 + 2 + r.Float64()},
				FracBeatsBaseline: r.Float64(),
				OriginalSimEff:    0.5 + r.Float64(),
				BoundSimEff:       0.5 + 2*r.Float64(),
			})
		}
		out = append(out, res)
	}
	return out
}

func TestAverageIndependentOfMapOrder(t *testing.T) {
	suite := syntheticSuite()
	series := func(a *SuiteAverage) [][]float64 {
		return [][]float64{a.OriginalRel, a.BoundRel, a.MedianRel, a.Q1Rel, a.Q3Rel,
			a.MaxRel, a.FracBeatsBaseline, a.OriginalSimRel, a.BoundSimRel}
	}
	var first *SuiteAverage
	for i := 0; i < 50; i++ {
		// A fresh map each time, filled in a rotated order, so Go's
		// randomized iteration order differs between calls.
		results := make(map[string]*Result, len(suite))
		for j := range suite {
			r := suite[(i+j)%len(suite)]
			results[r.Benchmark] = r
		}
		avg, err := Average(results)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = avg
			continue
		}
		want := series(first)
		for s, got := range series(avg) {
			for k := range got {
				if math.Float64bits(got[k]) != math.Float64bits(want[s][k]) {
					t.Fatalf("call %d: series %d depth %d = %v, first call gave %v", i, s, k, got[k], want[s][k])
				}
			}
		}
		if avg.BestOriginalDepth != first.BestOriginalDepth || avg.BestBoundDepth != first.BestBoundDepth {
			t.Fatalf("call %d: best depths moved", i)
		}
	}
}

func TestAverageEmpty(t *testing.T) {
	if _, err := Average(nil); err == nil {
		t.Fatal("Average of nothing succeeded")
	}
}

func TestModelFindsSimulatorOptimumWithin3FO4(t *testing.T) {
	// Figure 6's headline: "the models correctly identify the most
	// efficient depths to within 3 FO4".
	e := testExplorer(t)
	results, err := RunSuite(e, Options{SimulateValidation: true})
	if err != nil {
		t.Fatal(err)
	}
	avg, err := Average(results)
	if err != nil {
		t.Fatal(err)
	}
	simBest, simVal := 0, -1.0
	for i, v := range avg.OriginalSimRel {
		if v > simVal {
			simVal, simBest = v, avg.Depths[i]
		}
	}
	if d := avg.BestOriginalDepth - simBest; d < -3 || d > 3 {
		t.Fatalf("model optimum %d vs simulated %d differ by more than 3 FO4",
			avg.BestOriginalDepth, simBest)
	}
}
