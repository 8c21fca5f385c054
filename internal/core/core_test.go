package core

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/eval"
	"repro/internal/regression"
	"repro/internal/stats"
)

// testExplorer trains a small but real explorer once and shares it across
// tests; training is deterministic so sharing is safe.
var sharedExplorer *Explorer

func testExplorer(t *testing.T) *Explorer {
	t.Helper()
	if sharedExplorer != nil {
		return sharedExplorer
	}
	opts := DefaultOptions()
	opts.TrainSamples = 180
	opts.ValidationSamples = 30
	opts.TraceLen = 20000
	opts.Benchmarks = []string{"gzip", "mcf", "mesa"}
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Train(); err != nil {
		t.Fatal(err)
	}
	sharedExplorer = e
	return e
}

func TestNewRejectsBadOptions(t *testing.T) {
	if _, err := New(Options{TrainSamples: 0, TraceLen: 100}); err == nil {
		t.Fatal("zero TrainSamples accepted")
	}
	if _, err := New(Options{TrainSamples: 10, TraceLen: 0}); err == nil {
		t.Fatal("zero TraceLen accepted")
	}
	if _, err := New(Options{TrainSamples: 10, TraceLen: 100, Benchmarks: []string{"nope"}}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestDefaultOptionsMatchPaper(t *testing.T) {
	o := DefaultOptions()
	if o.TrainSamples != 1000 {
		t.Errorf("TrainSamples = %d, want the paper's 1000", o.TrainSamples)
	}
	if o.ValidationSamples != 100 {
		t.Errorf("ValidationSamples = %d, want the paper's 100", o.ValidationSamples)
	}
}

func TestUntrainedExplorerRefusesPrediction(t *testing.T) {
	opts := DefaultOptions()
	opts.Benchmarks = []string{"gzip"}
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if e.Trained() {
		t.Fatal("fresh explorer claims to be trained")
	}
	if _, _, err := e.Predict(arch.Baseline(), "gzip"); err == nil {
		t.Fatal("Predict before Train succeeded")
	}
	if _, err := e.Validate(5); err == nil {
		t.Fatal("Validate before Train succeeded")
	}
	if _, err := e.ExhaustivePredict("gzip"); err == nil {
		t.Fatal("ExhaustivePredict before Train succeeded")
	}
}

func TestTrainedExplorerPredicts(t *testing.T) {
	e := testExplorer(t)
	if !e.Trained() {
		t.Fatal("explorer not trained")
	}
	for _, bench := range e.Benchmarks() {
		bips, watts, err := e.Predict(arch.Baseline(), bench)
		if err != nil {
			t.Fatal(err)
		}
		if bips <= 0 || bips > 20 {
			t.Fatalf("%s predicted bips = %v", bench, bips)
		}
		if watts <= 0 || watts > 500 {
			t.Fatalf("%s predicted watts = %v", bench, watts)
		}
	}
}

func TestPredictUnknownBenchmark(t *testing.T) {
	e := testExplorer(t)
	if _, _, err := e.Predict(arch.Baseline(), "ammp"); err == nil {
		t.Fatal("prediction for unmodeled benchmark succeeded")
	}
}

func TestSimulateDeterministic(t *testing.T) {
	e := testExplorer(t)
	cfg := arch.Baseline()
	b1, w1, err := e.Simulate(cfg, "gzip")
	if err != nil {
		t.Fatal(err)
	}
	b2, w2, err := e.Simulate(cfg, "gzip")
	if err != nil {
		t.Fatal(err)
	}
	if b1 != b2 || w1 != w2 {
		t.Fatal("repeated simulation returned different values")
	}
}

// TestSimulateConcurrentCallersAgree races many callers on one key:
// each runs its own simulation over the shared trace, outcome memo and
// scratch pool, and all must get the same bits.
func TestSimulateConcurrentCallersAgree(t *testing.T) {
	opts := DefaultOptions()
	opts.TrainSamples = 10
	opts.TraceLen = 5000
	opts.Benchmarks = []string{"gzip"}
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := arch.Baseline()
	const callers = 16
	type outcome struct {
		bips, watts float64
		err         error
	}
	results := make([]outcome, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, w, err := e.Simulate(cfg, "gzip")
			results[i] = outcome{b, w, err}
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("caller %d: %v", i, r.err)
		}
		if r != results[0] {
			t.Fatalf("caller %d got %+v, want %+v", i, r, results[0])
		}
	}
}

// TestExhaustivePredictWorkerInvariance pins the determinism contract:
// the sweep must be bit-identical whatever the worker count.
func TestExhaustivePredictWorkerInvariance(t *testing.T) {
	e := testExplorer(t)
	want, err := e.ExhaustivePredict("gzip")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		opts := e.Options()
		opts.Workers = workers
		fresh, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := e.SaveModels(&buf); err != nil {
			t.Fatal(err)
		}
		if err := fresh.LoadModels(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := fresh.ExhaustivePredict("gzip")
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: prediction %d = %+v, want %+v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestExhaustivePredictTileInvariance pins the sweep's output against
// the tile size: tiles that start mid-plane (7), hold one DL1×L2 plane
// (25) or straddle plane and depth-block boundaries (3,751) must give
// the default tile's bits, on the compiled path.
func TestExhaustivePredictTileInvariance(t *testing.T) {
	e := testExplorer(t)
	want, err := e.ExhaustivePredict("gzip")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]Prediction, len(want))
	for _, tile := range []int{7, 25, 3751} {
		ex := explorerLike(t, e, func(o *Options) { o.SweepTile = tile })
		if err := ex.ExhaustivePredictInto(context.Background(), "gzip", got); err != nil {
			t.Fatal(err)
		}
		if ex.modelsBackend.Guard().Degraded() || ex.ModelStats().SweptPoints == 0 {
			t.Fatalf("tile %d: sweep left the compiled path", tile)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("tile %d: prediction %d = %+v, want %+v", tile, i, got[i], want[i])
			}
		}
	}
}

func TestExhaustivePredictIntoValidatesLength(t *testing.T) {
	e := testExplorer(t)
	if err := e.ExhaustivePredictInto(context.Background(), "gzip", make([]Prediction, 3)); err == nil {
		t.Fatal("short destination buffer accepted")
	}
}

func TestEngineStatsExposed(t *testing.T) {
	e := testExplorer(t)
	if _, _, err := e.Simulate(arch.Baseline(), "gzip"); err != nil {
		t.Fatal(err)
	}
	sim := e.SimStats()
	if sim.Evaluations == 0 {
		t.Fatalf("sim stats empty after training: %+v", sim)
	}
	if sim.Workers != e.Options().Workers {
		t.Fatalf("sim workers = %d, want %d", sim.Workers, e.Options().Workers)
	}
	if _, _, err := e.Predict(arch.Baseline(), "gzip"); err != nil {
		t.Fatal(err)
	}
	if model := e.ModelStats(); model.Evaluations == 0 {
		t.Fatalf("model stats empty after prediction: %+v", model)
	}
}

func TestValidationAccuracy(t *testing.T) {
	e := testExplorer(t)
	rep, err := e.Validate(0)
	if err != nil {
		t.Fatal(err)
	}
	perfMed, powMed := rep.OverallMedians()
	// The paper reports 7.2% / 5.4% medians; our smoother substrate
	// should stay within 15% even at reduced training budget.
	if perfMed > 0.15 {
		t.Fatalf("median performance error = %v, want < 0.15", perfMed)
	}
	if powMed > 0.15 {
		t.Fatalf("median power error = %v, want < 0.15", powMed)
	}
	if len(rep.PerBenchmark) != len(e.Benchmarks()) {
		t.Fatal("validation missing benchmarks")
	}
	for _, be := range rep.PerBenchmark {
		if len(be.Perf) != 30 || len(be.Power) != 30 {
			t.Fatalf("%s has %d/%d validation errors, want 30", be.Benchmark, len(be.Perf), len(be.Power))
		}
		box, err := rep.PerfBoxplot(be.Benchmark)
		if err != nil {
			t.Fatal(err)
		}
		if box.Med < 0 {
			t.Fatal("negative error")
		}
	}
	if _, err := rep.PerfBoxplot("nope"); err == nil {
		t.Fatal("boxplot for unknown benchmark succeeded")
	}
}

func TestExhaustivePredictCoversSpace(t *testing.T) {
	e := testExplorer(t)
	preds, err := e.ExhaustivePredict("gzip")
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != e.StudySpace.Size() {
		t.Fatalf("predictions = %d, want %d", len(preds), e.StudySpace.Size())
	}
	positive := 0
	for i, p := range preds {
		if p.Index != i {
			t.Fatalf("prediction %d has index %d", i, p.Index)
		}
		if p.BIPS > 0 && p.Watts > 0 {
			positive++
		}
	}
	if frac := float64(positive) / float64(len(preds)); frac < 0.99 {
		t.Fatalf("only %v of predictions positive", frac)
	}
}

func TestExhaustivePredictCached(t *testing.T) {
	e := testExplorer(t)
	a, err := e.ExhaustivePredict("gzip")
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.ExhaustivePredict("gzip")
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] {
		t.Fatal("sweep not cached")
	}
}

func TestPredictionMatchesModelDirectly(t *testing.T) {
	e := testExplorer(t)
	perf, pow, err := e.Models("mesa")
	if err != nil {
		t.Fatal(err)
	}
	cfg := arch.Baseline()
	wantB, wantW := eval.PredictInterpreted(perf, pow, cfg)
	gotB, gotW, err := e.Predict(cfg, "mesa")
	if err != nil {
		t.Fatal(err)
	}
	if gotB != wantB || gotW != wantW {
		t.Fatal("Predict disagrees with direct model evaluation")
	}
}

func TestSpecsBuild(t *testing.T) {
	builders := map[string]SpecBuilder{
		"paper":         PaperSpec,
		"linear":        LinearSpec,
		"nointeraction": NoInteractionSpec,
		"untransformed": UntransformedSpec,
	}
	for name, b := range builders {
		spec := b(ColBIPS, regression.Sqrt)
		if spec.Response != ColBIPS {
			t.Fatalf("%s: response = %q", name, spec.Response)
		}
		if len(spec.Terms) == 0 {
			t.Fatalf("%s: no terms", name)
		}
	}
	if UntransformedSpec(ColBIPS, regression.Sqrt).Transform != regression.Identity {
		t.Fatal("UntransformedSpec kept the transform")
	}
	if LinearSpec(ColBIPS, regression.Sqrt).Transform != regression.Sqrt {
		t.Fatal("LinearSpec dropped the transform")
	}
}

func TestPaperSpecBeatsLinearOnValidation(t *testing.T) {
	// The paper's argument for splines and transforms: the full spec
	// should validate at least as well as the all-linear ablation.
	mkOpts := func(spec SpecBuilder) Options {
		o := DefaultOptions()
		o.TrainSamples = 180
		o.ValidationSamples = 40
		o.TraceLen = 20000
		o.Benchmarks = []string{"mesa"}
		o.Spec = spec
		return o
	}
	run := func(spec SpecBuilder) float64 {
		e, err := New(mkOpts(spec))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Train(); err != nil {
			t.Fatal(err)
		}
		rep, err := e.Validate(0)
		if err != nil {
			t.Fatal(err)
		}
		perfMed, _ := rep.OverallMedians()
		return perfMed
	}
	paper := run(PaperSpec)
	linear := run(LinearSpec)
	if paper > linear*1.15 {
		t.Fatalf("paper spec error %v should not exceed linear %v by >15%%", paper, linear)
	}
}

func TestBenchmarkErrorsAggregation(t *testing.T) {
	rep := &ValidationReport{PerBenchmark: []BenchmarkErrors{
		{Benchmark: "a", Perf: []float64{0.1, 0.2}, Power: []float64{0.05, 0.07}},
		{Benchmark: "b", Perf: []float64{0.3, 0.4}, Power: []float64{0.01, 0.03}},
	}}
	perf, pow := rep.OverallMedians()
	if perf != stats.Median([]float64{0.1, 0.2, 0.3, 0.4}) {
		t.Fatalf("perf median = %v", perf)
	}
	if pow != stats.Median([]float64{0.05, 0.07, 0.01, 0.03}) {
		t.Fatalf("power median = %v", pow)
	}
}

func TestModelSummariesReadable(t *testing.T) {
	e := testExplorer(t)
	perf, _, err := e.Models("gzip")
	if err != nil {
		t.Fatal(err)
	}
	s := perf.Summary()
	for _, want := range []string{"bips", "depth", "width", "l2"} {
		if !strings.Contains(s, want) {
			t.Fatalf("model summary missing %q:\n%s", want, s)
		}
	}
}

func TestPredictorAssociations(t *testing.T) {
	e := testExplorer(t)
	assoc, err := e.PredictorAssociations("mcf")
	if err != nil {
		t.Fatal(err)
	}
	if len(assoc) != len(arch.PredictorNames()) {
		t.Fatalf("got %d associations", len(assoc))
	}
	byName := map[string]Association{}
	for _, a := range assoc {
		byName[a.Predictor] = a
		if a.PerfRho < -1 || a.PerfRho > 1 || a.PowerRho < -1 || a.PowerRho > 1 {
			t.Fatalf("correlation out of range: %+v", a)
		}
	}
	// Physics checks: deeper pipelines (larger FO4) clock slower, so
	// depth correlates negatively with bips; width correlates positively
	// with power for every benchmark.
	if byName["depth"].PerfRho >= 0 {
		t.Fatalf("depth-perf rho = %v, want negative", byName["depth"].PerfRho)
	}
	if byName["width"].PowerRho <= 0 {
		t.Fatalf("width-power rho = %v, want positive", byName["width"].PowerRho)
	}
	// mcf is memory bound: L2 size should matter more for its
	// performance than the I-cache does.
	if mathAbs(byName["l2"].PerfRho) <= mathAbs(byName["il1"].PerfRho) {
		t.Fatalf("mcf: l2 rho %v should dominate il1 rho %v",
			byName["l2"].PerfRho, byName["il1"].PerfRho)
	}
}

func mathAbs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func TestPredictorAssociationsRequiresTraining(t *testing.T) {
	opts := DefaultOptions()
	opts.Benchmarks = []string{"gzip"}
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.PredictorAssociations("gzip"); err == nil {
		t.Fatal("associations without training succeeded")
	}
	if e.TrainingData("gzip") != nil {
		t.Fatal("training data exists before training")
	}
}
