package paretostudy

import (
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/pareto"
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
	opts.Benchmarks = []string{"gzip", "mcf"}
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

func TestRunProducesFrontier(t *testing.T) {
	e := testExplorer(t)
	res, err := Run(e, "gzip", Options{DelayTargets: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Characterization) != e.StudySpace.Size() {
		t.Fatalf("characterization size = %d", len(res.Characterization))
	}
	if len(res.Frontier) == 0 || len(res.Frontier) > 20 {
		t.Fatalf("frontier size = %d, want 1..20", len(res.Frontier))
	}
	// Frontier must be sorted by delay with decreasing power.
	for i := 1; i < len(res.Frontier); i++ {
		if res.Frontier[i].ModelDelay <= res.Frontier[i-1].ModelDelay {
			t.Fatal("frontier not sorted by delay")
		}
		if res.Frontier[i].ModelPower >= res.Frontier[i-1].ModelPower {
			t.Fatal("frontier power not decreasing")
		}
	}
}

func TestFrontierPointsUndominatedWithinBins(t *testing.T) {
	e := testExplorer(t)
	res, err := Run(e, "mcf", Options{DelayTargets: 15})
	if err != nil {
		t.Fatal(err)
	}
	// No frontier point may be strictly dominated by another frontier
	// point (binning guarantees this across bins).
	for i, a := range res.Frontier {
		for j, b := range res.Frontier {
			if i == j {
				continue
			}
			if pareto.IsDominated(
				pareto.Point{Delay: a.ModelDelay, Power: a.ModelPower},
				pareto.Point{Delay: b.ModelDelay, Power: b.ModelPower},
			) {
				t.Fatalf("frontier point %d dominated by %d", i, j)
			}
		}
	}
}

func TestValidationErrorsPopulated(t *testing.T) {
	e := testExplorer(t)
	res, err := Run(e, "gzip", Options{DelayTargets: 10, SimulateFrontier: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerfErrs) != len(res.Frontier) || len(res.PowerErrs) != len(res.Frontier) {
		t.Fatal("validation errors not aligned with frontier")
	}
	for i, fp := range res.Frontier {
		if fp.SimDelay <= 0 || fp.SimPower <= 0 {
			t.Fatalf("frontier point %d lacks simulated values", i)
		}
	}
	// Errors should be sane (paper: medians under ~10%).
	for _, v := range res.PerfErrs {
		if v < 0 || v > 1 {
			t.Fatalf("perf error %v out of range", v)
		}
	}
}

func TestBestIsEfficiencyArgmax(t *testing.T) {
	e := testExplorer(t)
	res, err := Run(e, "mcf", Options{DelayTargets: 10})
	if err != nil {
		t.Fatal(err)
	}
	best := res.Best
	if best.ModelEff <= 0 {
		t.Fatal("no efficiency recorded")
	}
	// Spot-check: no characterization point may beat the chosen optimum.
	for i, p := range res.Characterization {
		if p.BIPS <= 0 || p.Watts <= 0 {
			continue
		}
		if eff := metrics.BIPS3W(p.BIPS, p.Watts); eff > best.ModelEff*(1+1e-12) {
			t.Fatalf("design %d eff %v beats recorded best %v", i, eff, best.ModelEff)
		}
	}
	if best.SimDelay <= 0 || best.SimPower <= 0 {
		t.Fatal("best design not simulated")
	}
}

func TestMemoryBoundPrefersBiggerL2ThanComputeBound(t *testing.T) {
	// The paper's Table 2 signature: memory-intensive mcf selects a
	// larger L2 than compute-intensive gzip.
	e := testExplorer(t)
	mcf, err := Run(e, "mcf", Options{DelayTargets: 10})
	if err != nil {
		t.Fatal(err)
	}
	gzip, err := Run(e, "gzip", Options{DelayTargets: 10})
	if err != nil {
		t.Fatal(err)
	}
	if mcf.Best.Config.L2KB <= gzip.Best.Config.L2KB {
		t.Fatalf("mcf L2 (%d KB) should exceed gzip L2 (%d KB)",
			mcf.Best.Config.L2KB, gzip.Best.Config.L2KB)
	}
}

func TestRunSuiteAndErrorSummary(t *testing.T) {
	e := testExplorer(t)
	results, err := RunSuite(e, Options{DelayTargets: 8, SimulateFrontier: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("suite results = %d", len(results))
	}
	perfMed, powMed, ok := ErrorSummary(results)
	if !ok {
		t.Fatal("no error summary despite validation")
	}
	if perfMed < 0 || perfMed > 0.5 || powMed < 0 || powMed > 0.5 {
		t.Fatalf("medians = %v/%v look wrong", perfMed, powMed)
	}
	// Without validation no summary should be produced.
	dry, err := Run(e, "gzip", Options{DelayTargets: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := ErrorSummary(map[string]*Result{"gzip": dry}); ok {
		t.Fatal("summary produced without validation data")
	}
}

func TestRunUnknownBenchmark(t *testing.T) {
	e := testExplorer(t)
	if _, err := Run(e, "ammp", Options{}); err == nil {
		t.Fatal("study ran for unmodeled benchmark")
	}
}

// TestFrontierColumnsSkipNonPhysical feeds the column builder a
// characterization holding designs with bips <= 0 (on which
// metrics.Delay panics) and watts <= 0: only the physical designs may
// reach the frontier columns, in index order, named by position.
func TestFrontierColumnsSkipNonPhysical(t *testing.T) {
	preds := []core.Prediction{
		{BIPS: 1, Watts: 10},
		{BIPS: 0, Watts: 5},
		{BIPS: -0.5, Watts: 5},
		{BIPS: 2, Watts: 0},
		{BIPS: 2, Watts: -3},
		{BIPS: 0.5, Watts: 2},
	}
	ids, delays, powers := frontierColumns(preds)
	wantIDs := []int{0, 5}
	if len(ids) != len(wantIDs) || len(delays) != len(wantIDs) || len(powers) != len(wantIDs) {
		t.Fatalf("columns have %d/%d/%d rows, want %d", len(ids), len(delays), len(powers), len(wantIDs))
	}
	for r, i := range wantIDs {
		if ids[r] != i || delays[r] != metrics.Delay(preds[i].BIPS) || powers[r] != preds[i].Watts {
			t.Fatalf("row %d = (%d, %v, %v), want design %d", r, ids[r], delays[r], powers[r], i)
		}
	}
}

// TestRunSkipsNonPhysicalDesigns runs the study on models fit without
// response transformations, whose characterization predicts
// non-positive power for some designs: the frontier must hold only
// physical designs and match the frontier of the physical designs alone.
func TestRunSkipsNonPhysicalDesigns(t *testing.T) {
	opts := core.DefaultOptions()
	opts.TrainSamples = 40
	opts.TraceLen = 2000
	opts.Benchmarks = []string{"gzip"}
	opts.Spec = core.UntransformedSpec
	e, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Train(); err != nil {
		t.Fatal(err)
	}
	res, err := Run(e, "gzip", Options{DelayTargets: 40})
	if err != nil {
		t.Fatal(err)
	}
	var ids []int
	var delays, powers []float64
	for i, p := range res.Characterization {
		if p.BIPS > 0 && p.Watts > 0 {
			ids = append(ids, i)
			delays = append(delays, metrics.Delay(p.BIPS))
			powers = append(powers, p.Watts)
		}
	}
	if len(ids) == len(res.Characterization) {
		t.Fatal("characterization holds no non-physical design; the test shows nothing")
	}
	want, err := pareto.DiscretizedFrontierColumns(ids, delays, powers, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frontier) != len(want) {
		t.Fatalf("frontier has %d points, want %d", len(res.Frontier), len(want))
	}
	for i, fp := range res.Frontier {
		if fp.ModelDelay <= 0 || fp.ModelPower <= 0 {
			t.Fatalf("frontier point %d is non-physical: delay %v, power %v", i, fp.ModelDelay, fp.ModelPower)
		}
		if fp.Index != want[i].ID || fp.ModelDelay != want[i].Delay || fp.ModelPower != want[i].Power {
			t.Fatalf("frontier point %d = (%d, %v, %v), want %+v", i, fp.Index, fp.ModelDelay, fp.ModelPower, want[i])
		}
	}
}
