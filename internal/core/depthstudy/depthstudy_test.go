package depthstudy

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/metrics"
	"repro/internal/stats"
)

var shared *core.Explorer

func testExplorer(t testing.TB) *core.Explorer {
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

// oracleRun is the depth study as first written, kept as the reference
// for Run without simulation: every depth block scored into (index,
// efficiency) records and sorted by efficiency for Figure 5(b), and its
// relative efficiencies copied and sorted again by NewBoxplot for
// Figure 5(a).
func oracleRun(e *core.Explorer, bench string, topPercentile float64) (*Result, error) {
	space := e.StudySpace
	depths := space.DepthLevels()
	baseCfgs := make([]arch.Config, len(depths))
	for i, d := range depths {
		baseCfgs[i] = arch.Baseline()
		baseCfgs[i].DepthFO4 = d
	}
	origPreds, err := e.PredictBatch(context.Background(), eval.RequestsFor(baseCfgs, bench))
	if err != nil {
		return nil, err
	}
	origEff := make([]float64, len(depths))
	for i := range depths {
		origEff[i] = metrics.BIPS3W(origPreds[i].BIPS, origPreds[i].Watts)
	}
	bestIdx := argmax(origEff)
	res := &Result{Benchmark: bench, OriginalBestDepth: depths[bestIdx], OriginalBestEff: origEff[bestIdx]}
	preds, err := e.ExhaustivePredict(bench)
	if err != nil {
		return nil, err
	}
	type scored struct {
		idx int
		eff float64
	}
	for di, d := range depths {
		lo, hi := space.DepthBlock(di)
		var effs []float64
		var all []scored
		bound := scored{idx: -1, eff: math.Inf(-1)}
		beats := 0
		for flat := lo; flat < hi; flat++ {
			p := preds[flat]
			if p.BIPS <= 0 || p.Watts <= 0 {
				continue
			}
			eff := metrics.BIPS3W(p.BIPS, p.Watts)
			effs = append(effs, eff/res.OriginalBestEff)
			all = append(all, scored{idx: flat, eff: eff})
			if eff > bound.eff {
				bound = scored{idx: flat, eff: eff}
			}
			if eff > res.OriginalBestEff {
				beats++
			}
		}
		row := DepthRow{
			DepthFO4:           d,
			OriginalModelBIPS:  origPreds[di].BIPS,
			OriginalModelWatts: origPreds[di].Watts,
			OriginalModelEff:   origEff[di],
			EffBox:             stats.NewBoxplot(effs),
			BoundConfig:        space.Config(space.PointAt(bound.idx)),
			BoundModelEff:      bound.eff,
			BoundModelBIPS:     preds[bound.idx].BIPS,
			BoundModelWatts:    preds[bound.idx].Watts,
			FracBeatsBaseline:  float64(beats) / float64(len(all)),
			DL1Histogram:       make(map[int]float64),
		}
		sort.Slice(all, func(a, b int) bool { return all[a].eff < all[b].eff })
		top := all[int(float64(len(all))*topPercentile):]
		for _, s := range top {
			row.DL1Histogram[space.Config(space.PointAt(s.idx)).DL1KB]++
		}
		for k := range row.DL1Histogram {
			row.DL1Histogram[k] /= float64(len(top))
		}
		res.Rows = append(res.Rows, row)
	}
	bi := 0
	for i, r := range res.Rows {
		if r.BoundModelEff > res.Rows[bi].BoundModelEff {
			bi = i
		}
	}
	res.BoundBestDepth = res.Rows[bi].DepthFO4
	return res, nil
}

// rowDiff names the first field in which two rows differ, comparing
// every float by its bits; it returns "" for identical rows.
func rowDiff(got, want DepthRow) string {
	floats := []struct {
		name string
		g, w float64
	}{
		{"OriginalModelBIPS", got.OriginalModelBIPS, want.OriginalModelBIPS},
		{"OriginalModelWatts", got.OriginalModelWatts, want.OriginalModelWatts},
		{"OriginalModelEff", got.OriginalModelEff, want.OriginalModelEff},
		{"OriginalSimEff", got.OriginalSimEff, want.OriginalSimEff},
		{"OriginalSimBIPS", got.OriginalSimBIPS, want.OriginalSimBIPS},
		{"OriginalSimWatts", got.OriginalSimWatts, want.OriginalSimWatts},
		{"EffBox.Min", got.EffBox.Min, want.EffBox.Min},
		{"EffBox.Max", got.EffBox.Max, want.EffBox.Max},
		{"EffBox.Q1", got.EffBox.Q1, want.EffBox.Q1},
		{"EffBox.Med", got.EffBox.Med, want.EffBox.Med},
		{"EffBox.Q3", got.EffBox.Q3, want.EffBox.Q3},
		{"EffBox.LoWhisker", got.EffBox.LoWhisker, want.EffBox.LoWhisker},
		{"EffBox.HiWhisker", got.EffBox.HiWhisker, want.EffBox.HiWhisker},
		{"EffBox.Mean", got.EffBox.Mean, want.EffBox.Mean},
		{"EffBox.StdDev", got.EffBox.StdDev, want.EffBox.StdDev},
		{"BoundModelEff", got.BoundModelEff, want.BoundModelEff},
		{"BoundSimEff", got.BoundSimEff, want.BoundSimEff},
		{"BoundSimBIPS", got.BoundSimBIPS, want.BoundSimBIPS},
		{"BoundSimWatts", got.BoundSimWatts, want.BoundSimWatts},
		{"BoundModelBIPS", got.BoundModelBIPS, want.BoundModelBIPS},
		{"BoundModelWatts", got.BoundModelWatts, want.BoundModelWatts},
		{"FracBeatsBaseline", got.FracBeatsBaseline, want.FracBeatsBaseline},
	}
	for _, f := range floats {
		if math.Float64bits(f.g) != math.Float64bits(f.w) {
			return fmt.Sprintf("%s = %v, want %v", f.name, f.g, f.w)
		}
	}
	if got.DepthFO4 != want.DepthFO4 || got.EffBox.N != want.EffBox.N || got.BoundConfig != want.BoundConfig {
		return fmt.Sprintf("depth/N/bound config = %d/%d/%v, want %d/%d/%v",
			got.DepthFO4, got.EffBox.N, got.BoundConfig, want.DepthFO4, want.EffBox.N, want.BoundConfig)
	}
	if len(got.EffBox.Outliers) != len(want.EffBox.Outliers) {
		return fmt.Sprintf("%d outliers, want %d", len(got.EffBox.Outliers), len(want.EffBox.Outliers))
	}
	for i, v := range got.EffBox.Outliers {
		if math.Float64bits(v) != math.Float64bits(want.EffBox.Outliers[i]) {
			return fmt.Sprintf("outlier %d = %v, want %v", i, v, want.EffBox.Outliers[i])
		}
	}
	if len(got.DL1Histogram) != len(want.DL1Histogram) {
		return fmt.Sprintf("DL1Histogram = %v, want %v", got.DL1Histogram, want.DL1Histogram)
	}
	for kb, w := range want.DL1Histogram {
		if g, ok := got.DL1Histogram[kb]; !ok || math.Float64bits(g) != math.Float64bits(w) {
			return fmt.Sprintf("DL1Histogram = %v, want %v", got.DL1Histogram, want.DL1Histogram)
		}
	}
	return ""
}

func TestRunMatchesOracle(t *testing.T) {
	e := testExplorer(t)
	for _, bench := range e.Benchmarks() {
		for _, top := range []float64{0.95, 0.5} {
			got, err := Run(e, bench, Options{TopPercentile: top})
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracleRun(e, bench, top)
			if err != nil {
				t.Fatal(err)
			}
			if got.OriginalBestDepth != want.OriginalBestDepth || got.BoundBestDepth != want.BoundBestDepth ||
				math.Float64bits(got.OriginalBestEff) != math.Float64bits(want.OriginalBestEff) {
				t.Fatalf("%s: best depths/eff %d/%d/%v, want %d/%d/%v", bench,
					got.OriginalBestDepth, got.BoundBestDepth, got.OriginalBestEff,
					want.OriginalBestDepth, want.BoundBestDepth, want.OriginalBestEff)
			}
			if len(got.Rows) != len(want.Rows) {
				t.Fatalf("%s: %d rows, want %d", bench, len(got.Rows), len(want.Rows))
			}
			for i := range got.Rows {
				if d := rowDiff(got.Rows[i], want.Rows[i]); d != "" {
					t.Fatalf("%s top %v, %d FO4: %s", bench, top, want.Rows[i].DepthFO4, d)
				}
			}
		}
	}
}

// syntheticBlock returns n predictions with efficiency bips^3 at one
// watt; passed to analyzeBlock with first = 0 they are the designs at
// flat indices 0..n-1 of the study space (the deepest depth's block).
func syntheticBlock(bips []float64) []core.Prediction {
	block := make([]core.Prediction, len(bips))
	for i, b := range bips {
		block[i] = core.Prediction{BIPS: b, Watts: 1}
	}
	return block
}

func TestAnalyzeBlockTiesAtCutInFlatOrder(t *testing.T) {
	// 1000 designs, top 5%: cut = 950, so 50 designs make the histogram.
	// 945 sit below 1, ten are tied at exactly 1 (sorted positions
	// 945-954, straddling the cut) and 45 sit above, so five of the ten
	// ties are taken: the five with the lowest flat indices.
	const n = 1000
	space := arch.ExplorationSpace()
	r := rand.New(rand.NewSource(3))
	perm := r.Perm(n)
	bips := make([]float64, n)
	tied := perm[:10]
	for _, i := range tied {
		bips[i] = 1
	}
	for k, i := range perm[10:55] {
		bips[i] = 2 + float64(k)/64
	}
	for k, i := range perm[55:] {
		bips[i] = 0.5 + float64(k)/4096
	}
	want := make(map[int]float64)
	for _, i := range perm[10:55] {
		want[space.Config(space.PointAt(i)).DL1KB]++
	}
	sortedTies := append([]int(nil), tied...)
	sort.Ints(sortedTies)
	for _, i := range sortedTies[:5] {
		want[space.Config(space.PointAt(i)).DL1KB]++
	}
	var total float64
	for kb := range want {
		total += want[kb]
		want[kb] /= 50
	}
	if total != 50 {
		t.Fatalf("expected histogram counts %v designs", total)
	}
	// The rule must be visible: the last five ties in flat order give a
	// different histogram from the first five.
	first, last := make(map[int]int), make(map[int]int)
	for k := 0; k < 5; k++ {
		first[space.Config(space.PointAt(sortedTies[k])).DL1KB]++
		last[space.Config(space.PointAt(sortedTies[5+k])).DL1KB]++
	}
	if fmt.Sprint(first) == fmt.Sprint(last) {
		t.Fatalf("seed gives the same D-L1 sizes to both halves of the ties: %v", first)
	}

	row := DepthRow{DepthFO4: 12}
	var s blockScratch
	if err := analyzeBlock(&row, space, 0, syntheticBlock(bips), 1, 0.95, &s); err != nil {
		t.Fatal(err)
	}
	if len(row.DL1Histogram) != len(want) {
		t.Fatalf("DL1Histogram = %v, want %v", row.DL1Histogram, want)
	}
	for kb, w := range want {
		if row.DL1Histogram[kb] != w {
			t.Fatalf("DL1Histogram = %v, want %v", row.DL1Histogram, want)
		}
	}
	if row.EffBox.N != n || row.FracBeatsBaseline != 45.0/n {
		t.Fatalf("N = %d, FracBeatsBaseline = %v", row.EffBox.N, row.FracBeatsBaseline)
	}
}

func TestAnalyzeBlockRejectsNonFinite(t *testing.T) {
	space := arch.ExplorationSpace()
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		bips := []float64{1, 2, bad, 3}
		row := DepthRow{DepthFO4: 12}
		var s blockScratch
		if err := analyzeBlock(&row, space, 0, syntheticBlock(bips), 1, 0.95, &s); err == nil {
			t.Fatalf("BIPS %v accepted", bad)
		}
	}
	// Efficiency overflows to +Inf from finite predictions too.
	row := DepthRow{DepthFO4: 12}
	block := syntheticBlock([]float64{1, math.MaxFloat64})
	var s blockScratch
	if err := analyzeBlock(&row, space, 0, block, 1, 0.95, &s); err == nil {
		t.Fatal("overflowing efficiency accepted")
	}
}

func TestAnalyzeBlockSkipsInvalidDesigns(t *testing.T) {
	space := arch.ExplorationSpace()
	block := syntheticBlock([]float64{1, 0, 2, -1, 3})
	block[4].Watts = -1
	row := DepthRow{DepthFO4: 12}
	var s blockScratch
	if err := analyzeBlock(&row, space, 0, block, 1, 0.5, &s); err != nil {
		t.Fatal(err)
	}
	if row.EffBox.N != 2 || row.BoundModelEff != 8 || row.BoundConfig != space.Config(space.PointAt(2)) {
		t.Fatalf("N = %d, bound eff %v at %+v", row.EffBox.N, row.BoundModelEff, row.BoundConfig)
	}
	if err := analyzeBlock(&row, space, 0, syntheticBlock([]float64{0, -2}), 1, 0.5, &s); err == nil {
		t.Fatal("block with no valid design accepted")
	}
}

// TestAnalyzeBlockNamesDesignsFromFirstIndex runs a block that starts
// inside a later depth's block, off a DL1×L2 plane boundary: the bound
// design and the D-L1 histogram must name the designs at first+i, not
// at the block positions i.
func TestAnalyzeBlockNamesDesignsFromFirstIndex(t *testing.T) {
	space := arch.ExplorationSpace()
	lo, _ := space.DepthBlock(3)
	first := lo + 10
	bips := make([]float64, 50)
	for i := range bips {
		bips[i] = 1
	}
	bips[3], bips[7] = 3, 2 // the top two designs at a 96th-percentile cut
	row := DepthRow{DepthFO4: 12}
	var s blockScratch
	if err := analyzeBlock(&row, space, first, syntheticBlock(bips), 1, 0.96, &s); err != nil {
		t.Fatal(err)
	}
	if want := space.Config(space.PointAt(first + 3)); row.BoundConfig != want || row.BoundModelEff != 27 {
		t.Fatalf("bound design %+v (eff %v), want %+v (eff 27)", row.BoundConfig, row.BoundModelEff, want)
	}
	want := map[int]float64{}
	for _, i := range []int{first + 3, first + 7} {
		want[space.Config(space.PointAt(i)).DL1KB] += 0.5
	}
	if len(want) != 2 || space.Config(space.PointAt(3)).DL1KB == space.Config(space.PointAt(first+3)).DL1KB {
		t.Fatalf("offset %d does not move the top designs' D-L1 sizes: %v", first, want)
	}
	if fmt.Sprint(row.DL1Histogram) != fmt.Sprint(want) {
		t.Fatalf("DL1Histogram = %v, want %v", row.DL1Histogram, want)
	}
}

// BenchmarkDepthRun times one benchmark's depth study on an explorer
// whose sweep is already cached, so only the study's own work counts.
func BenchmarkDepthRun(b *testing.B) {
	e := testExplorer(b)
	if _, err := e.ExhaustivePredict("gzip"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(e, "gzip", Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
