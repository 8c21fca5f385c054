// Package repro's top-level benchmark harness regenerates every table and
// figure of the paper's evaluation. Each benchmark reproduces one
// artifact and logs the rendered table or figure on its first iteration,
// so
//
//	go test -bench=. -benchmem
//
// both measures the cost of each analysis and reprints the paper.
//
// The default training budget is reduced so the full harness completes in
// minutes on a laptop; pass -paperbudget to use the paper's full
// configuration (1,000 training samples, 100 validation designs,
// 100k-instruction traces).
package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/atomicio"
	"repro/internal/core"
	"repro/internal/core/depthstudy"
	"repro/internal/core/heterostudy"
	"repro/internal/core/paretostudy"
	"repro/internal/eval"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/regression"
	"repro/internal/report"
	"repro/internal/search"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

var (
	paperBudget = flag.Bool("paperbudget", false,
		"use the paper's full budget (1000 samples, 100 validation designs, 100k traces)")
	quietFigures = flag.Bool("quietfigures", false,
		"suppress rendered tables and figures in benchmark logs")
	scaleGate = flag.Bool("scalegate", false,
		"fail the sweep benchmark if 2-worker parallel efficiency < 1.5x (skipped on single-CPU hosts)")
	guardGate = flag.Bool("guardgate", false,
		"fail the sweep benchmark if the guardrail's paired overhead exceeds the 8% budget (DESIGN.md §11)")
)

func benchOptions() core.Options {
	opts := core.DefaultOptions()
	if !*paperBudget {
		opts.TrainSamples = 300
		opts.ValidationSamples = 60
		opts.TraceLen = 40000
	}
	return opts
}

// The heavy fixtures are shared across benchmarks: one trained explorer,
// one validation report, and one result set per study.
var (
	fixtureOnce sync.Once
	fixture     struct {
		explorer   *core.Explorer
		validation *core.ValidationReport
		pareto     map[string]*paretostudy.Result
		depth      map[string]*depthstudy.Result
		depthAvg   *depthstudy.SuiteAverage
		hetero     *heterostudy.Result
		err        error
	}
)

func sharedFixture(b *testing.B) *core.Explorer {
	b.Helper()
	fixtureOnce.Do(func() {
		e, err := core.New(benchOptions())
		if err != nil {
			fixture.err = err
			return
		}
		if err := e.Train(); err != nil {
			fixture.err = err
			return
		}
		fixture.explorer = e
	})
	if fixture.err != nil {
		b.Fatal(fixture.err)
	}
	return fixture.explorer
}

func logFigure(b *testing.B, s string) {
	if !*quietFigures {
		b.Logf("\n%s", s)
	}
}

// BenchmarkTable1DesignSpace measures enumerating and sampling the
// paper's Table 1 design space: 375,000 configurations resolved from the
// seven coupled parameter groups.
func BenchmarkTable1DesignSpace(b *testing.B) {
	space := arch.TableOneSpace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points := space.SampleUAR(1000, uint64(i))
		var checksum int
		for _, p := range points {
			checksum += space.Config(p).DepthFO4
		}
		if checksum == 0 {
			b.Fatal("impossible checksum")
		}
	}
	b.StopTimer()
	logFigure(b, fmt.Sprintf(
		"Table 1: sampling space %d designs (10x3x10x10x5x5x5), exploration space %d designs",
		space.Size(), arch.ExplorationSpace().Size()))
}

// BenchmarkFigure1ValidationError reproduces the model validation of
// Section 3.4: error distributions for random designs.
func BenchmarkFigure1ValidationError(b *testing.B) {
	e := sharedFixture(b)
	b.ResetTimer()
	var rep *core.ValidationReport
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = e.Validate(0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	fixture.validation = rep
	logFigure(b, report.Figure1(rep))
}

func paretoResults(b *testing.B) map[string]*paretostudy.Result {
	b.Helper()
	e := sharedFixture(b)
	if fixture.pareto == nil {
		res, err := paretostudy.RunSuite(e, paretostudy.Options{
			DelayTargets:     40,
			SimulateFrontier: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		fixture.pareto = res
	}
	return fixture.pareto
}

// BenchmarkFigure2Characterization measures the exhaustive regression
// evaluation of the 262,500-point space (the paper's full-space
// delay-power scatter).
func BenchmarkFigure2Characterization(b *testing.B) {
	e := sharedFixture(b)
	results := paretoResults(b)
	perf, pow, err := e.Models("mcf")
	if err != nil {
		b.Fatal(err)
	}
	space := e.StudySpace
	vals := make([]float64, len(arch.PredictorNames()))
	get := func(name string) float64 { return vals[arch.PredictorIndex(name)] }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Evaluate both models over all 262,500 designs — the genuine
		// sweep, bypassing the explorer's per-benchmark cache.
		var sink float64
		for idx := 0; idx < space.Size(); idx++ {
			arch.PredictorsInto(space.Config(space.PointAt(idx)), vals)
			sink += perf.Predict(get) + pow.Predict(get)
		}
		if sink <= 0 {
			b.Fatal("sweep produced nothing")
		}
	}
	b.StopTimer()
	for _, bench := range []string{"ammp", "mcf"} {
		if r, ok := results[bench]; ok {
			logFigure(b, report.Figure2(e.StudySpace, r))
		}
	}
}

// BenchmarkExhaustivePredictParallel measures the 262,500-point
// exhaustive sweep as a worker-scaling curve (1, 2 and 4 workers) on the
// sweep kernel (eval.PairPlan.SweepRange, the prefix-factored plane
// kernel; the "blocked" path label predates it) and on
// its oracle (the interpreted per-request path, taken by an explorer
// whose guardrail has tripped). Every (path, workers) combination must
// produce bit-identical predictions. The measured rates are written to
// BENCH_sweep.json at the repo root, including num_cpu, the blocked
// kernel's 2-worker parallel efficiency (parallel_efficiency_2w), the
// blocked-over-interpreted speedup at the highest worker count
// (compiled_speedup) and the overheads of the two always-on
// safety/visibility layers: the fast-path guardrail
// (guard_overhead_pct, budget <= 8% — see the guard-pair comment) and
// span tracing
// (obs_on_overhead_pct). With -scalegate the benchmark fails if the
// 2-worker parallel efficiency drops below 1.5x — the regression gate CI
// runs on multi-core hosts; a single-CPU host cannot express parallel
// speedup, so there the gate is skipped and recorded as such. With
// -guardgate it fails if the guardrail overhead exceeds its 8% budget
// (that gate never skips: the pair shares whatever host it gets). It also
// reports how many simulations the fixture ran.
func BenchmarkExhaustivePredictParallel(b *testing.B) {
	e := sharedFixture(b)
	// Share the fixture's trained models across sub-benchmarks so each
	// measures only the sweep.
	var models bytes.Buffer
	if err := e.SaveModels(&models); err != nil {
		b.Fatal(err)
	}
	counts := []int{1, 2, 4}
	type rateKey struct {
		Path    string
		Workers int
	}
	// The framework reruns each sub-benchmark with growing b.N until the
	// benchtime is met; keep only the final (largest-N) measurement.
	measured := make(map[rateKey]float64)
	var order []rateKey
	var baseline []core.Prediction
	sweepBench := func(path string, workers int, interpreted bool) func(b *testing.B) {
		return func(b *testing.B) {
			opts := benchOptions()
			opts.Workers = workers
			if interpreted {
				opts.GuardInterval = 1
			}
			ex, err := core.New(opts)
			if err != nil {
				b.Fatal(err)
			}
			if err := ex.LoadModels(bytes.NewReader(models.Bytes())); err != nil {
				b.Fatal(err)
			}
			if interpreted {
				tripModelGuard(b, ex, "mcf")
			}
			out := make([]core.Prediction, ex.StudySpace.Size())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ex.ExhaustivePredictInto(context.Background(), "mcf", out); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			perSec := float64(len(out)*b.N) / b.Elapsed().Seconds()
			b.ReportMetric(perSec, "predictions/s")
			k := rateKey{Path: path, Workers: workers}
			if _, ok := measured[k]; !ok {
				order = append(order, k)
			}
			measured[k] = perSec
			if baseline == nil {
				baseline = append([]core.Prediction(nil), out...)
			} else {
				for i := range out {
					if out[i] != baseline[i] {
						b.Fatalf("path=%s workers=%d: prediction %d = %+v diverges from baseline %+v",
							path, workers, i, out[i], baseline[i])
					}
				}
			}
		}
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("path=blocked/workers=%d", workers),
			sweepBench("blocked", workers, false))
	}
	// Guardrail overhead on the default (blocked) path, measured paired:
	// each iteration runs one guarded (default interval) and one
	// guard-free (GuardInterval < 0) sweep back to back on two otherwise
	// identical explorers, timing each side separately. Machine drift —
	// frequency scaling, shared-CPU noise — hits both sides of every
	// iteration equally, so the rate ratio isolates the guardrail's
	// sampling cost, recorded as guard_overhead_pct. The guard's
	// *rate* is the pinned contract (one cross-check per GuardInterval
	// points, however the sweep is chunked); its *relative* overhead
	// therefore scales with kernel speed — about 5% against the blocked
	// kernel, because each check still costs one interpreted
	// prediction. Budget: <= 8%.
	// Both sides must stay bit-identical to the baseline.
	noguardWorkers := counts[len(counts)-1]
	b.Run(fmt.Sprintf("path=guard-pair/workers=%d", noguardWorkers), func(b *testing.B) {
		mk := func(guardInterval int64) *core.Explorer {
			opts := benchOptions()
			opts.Workers = noguardWorkers
			opts.GuardInterval = guardInterval
			ex, err := core.New(opts)
			if err != nil {
				b.Fatal(err)
			}
			if err := ex.LoadModels(bytes.NewReader(models.Bytes())); err != nil {
				b.Fatal(err)
			}
			return ex
		}
		guarded, unguarded := mk(0), mk(-1)
		outG := make([]core.Prediction, guarded.StudySpace.Size())
		outN := make([]core.Prediction, guarded.StudySpace.Size())
		var tG, tN time.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			if err := guarded.ExhaustivePredictInto(context.Background(), "mcf", outG); err != nil {
				b.Fatal(err)
			}
			tG += time.Since(t0)
			t0 = time.Now()
			if err := unguarded.ExhaustivePredictInto(context.Background(), "mcf", outN); err != nil {
				b.Fatal(err)
			}
			tN += time.Since(t0)
		}
		b.StopTimer()
		for _, side := range []struct {
			path string
			out  []core.Prediction
		}{{"blocked-guarded", outG}, {"blocked-noguard", outN}} {
			if baseline == nil {
				continue
			}
			for i := range side.out {
				if side.out[i] != baseline[i] {
					b.Fatalf("path=%s: prediction %d = %+v diverges from baseline %+v",
						side.path, i, side.out[i], baseline[i])
				}
			}
		}
		points := float64(len(outG) * b.N)
		kG := rateKey{Path: "blocked-guarded", Workers: noguardWorkers}
		kN := rateKey{Path: "blocked-noguard", Workers: noguardWorkers}
		for _, k := range []rateKey{kG, kN} {
			if _, ok := measured[k]; !ok {
				order = append(order, k)
			}
		}
		measured[kG] = points / tG.Seconds()
		measured[kN] = points / tN.Seconds()
		b.ReportMetric(100*(1-tN.Seconds()/tG.Seconds()), "guard-overhead-%")
	})
	// Observability overhead on the default (blocked) path, measured
	// paired exactly like the guardrail: each iteration runs one traced
	// sweep (spans, per-tile latency histograms, progress ticker all on)
	// and one untraced sweep back to back on two otherwise identical
	// explorers, toggling the global obs switch around each side. Machine
	// drift hits both sides of every iteration equally, so the rate ratio
	// isolates the tracing cost, recorded as obs_on_overhead_pct
	// (budget <= 1.5%: the per-tile span is one child-span publish and one
	// shared time.Now for span end + histogram sample, ~70 tiles per
	// 262,500-point sweep). Output must stay bit-identical either way.
	tracedWorkers := counts[len(counts)-1]
	b.Run(fmt.Sprintf("path=obs-pair/workers=%d", tracedWorkers), func(b *testing.B) {
		prevTracer, prevEnabled := obs.DefaultTracer, obs.Enabled()
		obs.DefaultTracer = obs.NewTracer(1 << 12)
		b.Cleanup(func() {
			obs.DefaultTracer = prevTracer
			obs.Enable(prevEnabled)
		})
		mk := func() *core.Explorer {
			opts := benchOptions()
			opts.Workers = tracedWorkers
			ex, err := core.New(opts)
			if err != nil {
				b.Fatal(err)
			}
			if err := ex.LoadModels(bytes.NewReader(models.Bytes())); err != nil {
				b.Fatal(err)
			}
			return ex
		}
		traced, untraced := mk(), mk()
		outT := make([]core.Prediction, traced.StudySpace.Size())
		outU := make([]core.Prediction, traced.StudySpace.Size())
		var tOn, tOff time.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			obs.Enable(true)
			t0 := time.Now()
			if err := traced.ExhaustivePredictInto(context.Background(), "mcf", outT); err != nil {
				b.Fatal(err)
			}
			tOn += time.Since(t0)
			obs.Enable(false)
			t0 = time.Now()
			if err := untraced.ExhaustivePredictInto(context.Background(), "mcf", outU); err != nil {
				b.Fatal(err)
			}
			tOff += time.Since(t0)
		}
		b.StopTimer()
		obs.Enable(false)
		for _, side := range []struct {
			path string
			out  []core.Prediction
		}{{"blocked-obs-on", outT}, {"blocked-obs-off", outU}} {
			if baseline == nil {
				continue
			}
			for i := range side.out {
				if side.out[i] != baseline[i] {
					b.Fatalf("path=%s: prediction %d = %+v diverges from baseline %+v",
						side.path, i, side.out[i], baseline[i])
				}
			}
		}
		points := float64(len(outT) * b.N)
		kOn := rateKey{Path: "blocked-obs-on", Workers: tracedWorkers}
		kOff := rateKey{Path: "blocked-obs-off", Workers: tracedWorkers}
		for _, k := range []rateKey{kOn, kOff} {
			if _, ok := measured[k]; !ok {
				order = append(order, k)
			}
		}
		measured[kOn] = points / tOn.Seconds()
		measured[kOff] = points / tOff.Seconds()
		b.ReportMetric(100*(1-tOff.Seconds()/tOn.Seconds()), "obs-overhead-%")
	})
	for _, workers := range counts {
		b.Run(fmt.Sprintf("path=interpreted/workers=%d", workers),
			sweepBench("interpreted", workers, true))
	}
	// Speedups at the highest worker count, the configuration that matters
	// for study wall-clock; parallel efficiency from the sweep kernel's
	// 1-to-2-worker step.
	maxWorkers := counts[len(counts)-1]
	blockedRate := measured[rateKey{Path: "blocked", Workers: maxWorkers}]
	blocked1 := measured[rateKey{Path: "blocked", Workers: 1}]
	blocked2 := measured[rateKey{Path: "blocked", Workers: 2}]
	interpretedRate := measured[rateKey{Path: "interpreted", Workers: maxWorkers}]
	obsOnRate := measured[rateKey{Path: "blocked-obs-on", Workers: maxWorkers}]
	obsOffRate := measured[rateKey{Path: "blocked-obs-off", Workers: maxWorkers}]
	guardedRate := measured[rateKey{Path: "blocked-guarded", Workers: maxWorkers}]
	noguardRate := measured[rateKey{Path: "blocked-noguard", Workers: maxWorkers}]
	if blockedRate > 0 && interpretedRate > 0 {
		type rate struct {
			Path           string  `json:"path"`
			Workers        int     `json:"workers"`
			PredictionsSec float64 `json:"predictions_per_sec"`
		}
		rates := make([]rate, len(order))
		for i, k := range order {
			rates[i] = rate{Path: k.Path, Workers: k.Workers, PredictionsSec: measured[k]}
		}
		report := struct {
			SpacePoints          int     `json:"space_points"`
			NumCPU               int     `json:"num_cpu"`
			Rates                []rate  `json:"rates"`
			SpeedupWorkers       int     `json:"speedup_workers"`
			CompiledSpeedup      float64 `json:"compiled_speedup"`
			ParallelEfficiency2W float64 `json:"parallel_efficiency_2w"`
			ObsOnOverheadPct     float64 `json:"obs_on_overhead_pct"`
			GuardOverheadPct     float64 `json:"guard_overhead_pct"`
		}{
			SpacePoints:     e.StudySpace.Size(),
			NumCPU:          runtime.NumCPU(),
			Rates:           rates,
			SpeedupWorkers:  maxWorkers,
			CompiledSpeedup: blockedRate / interpretedRate,
		}
		if blocked1 > 0 && blocked2 > 0 {
			report.ParallelEfficiency2W = blocked2 / blocked1
		}
		if obsOnRate > 0 && obsOffRate > 0 {
			report.ObsOnOverheadPct = 100 * (obsOffRate - obsOnRate) / obsOffRate
		}
		if noguardRate > 0 && guardedRate > 0 {
			report.GuardOverheadPct = 100 * (noguardRate - guardedRate) / noguardRate
		}
		data, err := json.MarshalIndent(report, "", " ")
		if err != nil {
			b.Fatal(err)
		}
		if err := atomicio.WriteFile("BENCH_sweep.json", append(data, '\n'), 0o644); err != nil {
			b.Logf("writing BENCH_sweep.json: %v", err)
		}
		logFigure(b, fmt.Sprintf(
			"exhaustive sweep at %d workers: blocked %.3gM predictions/s, interpreted %.3gM (%.1fx); 2-worker efficiency %.2fx on %d CPU; guard overhead %.2f%%, obs overhead %.2f%%",
			maxWorkers, blockedRate/1e6, interpretedRate/1e6, report.CompiledSpeedup,
			report.ParallelEfficiency2W, report.NumCPU, report.GuardOverheadPct,
			report.ObsOnOverheadPct))
		// CI regression gate: the tile-parallel sweep must keep scaling.
		// Parallel efficiency needs at least two real cores to exist; on a
		// single-CPU host the gate is structurally unmeasurable, so it is
		// skipped (and says so) rather than reporting a false failure.
		if *scaleGate {
			switch {
			case runtime.NumCPU() < 2:
				b.Logf("scalegate: skipped — %d CPU host cannot express parallel speedup", runtime.NumCPU())
			case report.ParallelEfficiency2W < 1.5:
				b.Fatalf("scalegate: 2-worker parallel efficiency %.2fx < 1.5x (blocked path: %.3gM preds/s at 1 worker, %.3gM at 2)",
					report.ParallelEfficiency2W, blocked1/1e6, blocked2/1e6)
			default:
				b.Logf("scalegate: ok — 2-worker parallel efficiency %.2fx", report.ParallelEfficiency2W)
			}
		}
		// CI regression gate: the guardrail's paired overhead must stay
		// within the DESIGN.md §11 budget. Unlike parallel efficiency it is
		// measurable on any host — the pair runs back to back on the same
		// cores — so there is no skip leg.
		if *guardGate {
			const guardBudgetPct = 8.0
			if report.GuardOverheadPct > guardBudgetPct {
				b.Fatalf("guardgate: guard overhead %.2f%% exceeds the %.0f%% budget (guarded %.3gM preds/s, unguarded %.3gM)",
					report.GuardOverheadPct, guardBudgetPct, guardedRate/1e6, noguardRate/1e6)
			}
			b.Logf("guardgate: ok — guard overhead %.2f%% within the <=%.0f%% budget",
				report.GuardOverheadPct, guardBudgetPct)
		}
	}
	sim := e.SimStats()
	logFigure(b, fmt.Sprintf("evaluation engine: %d simulations run, %d workers",
		sim.Evaluations, sim.Workers))
}

// baselinePoint is the exploration grid's point nearest arch.Baseline:
// 18 FO4, 4-wide, GPR 80, BR 12, 64 KB I-L1, 32 KB D-L1, 2 MB L2.
var baselinePoint = arch.Point{arch.AxisDepth: 2, arch.AxisWidth: 1, arch.AxisRegs: 4, arch.AxisResv: 6, arch.AxisIL1: 2, arch.AxisDL1: 2, arch.AxisL2: 3}

// tripModelGuard sends one corrupted plan prediction through ex's
// guardrail, which must check every prediction (GuardInterval 1), so ex
// answers every later prediction and sweep from the interpreted models.
func tripModelGuard(b *testing.B, ex *core.Explorer, bench string) {
	b.Helper()
	prev := fault.Current()
	fault.Enable(&fault.Plan{Rules: []fault.Rule{
		{Site: "eval.model.compiled", Kind: fault.KindFlip, Every: 1},
	}})
	_, _, err := ex.Predict(ex.StudySpace.Config(baselinePoint), bench)
	fault.Enable(prev)
	if err != nil {
		b.Fatal(err)
	}
	if !ex.ModelStats().Degraded {
		b.Fatal("model guardrail did not trip")
	}
}

// BenchmarkTrainDataset measures dataset-build throughput — the
// simulation phase of training, the dominant cost of the whole
// methodology — on both simulator paths: the production path
// (eval.Simulator over sim.Runner: pooled scratch, one memoized outcome
// mask per cache geometry) and the seed full-warmup path (an eval.Func
// over sim.Run). Both paths run through an engine, which runs every
// evaluation as a real simulation, and both must produce bit-identical
// datasets. The measured rates (runs/sec and simulated timed MInst/sec)
// and the fast-over-seed speedup are written to BENCH_train.json at the
// repo root.
func BenchmarkTrainDataset(b *testing.B) {
	traceLen := benchOptions().TraceLen
	benches := []string{"gzip", "mcf", "twolf"}
	// Training samples are drawn from the paper's sampling space; reuse of
	// cache geometries across samples is what the outcome memo exploits.
	space := arch.TableOneSpace()
	points := space.SampleUAR(200, 0xDA7A)
	var reqs []eval.Request
	for _, bench := range benches {
		for _, pt := range points {
			reqs = append(reqs, eval.Request{Config: space.Config(pt), Bench: bench})
		}
	}
	timedPerRun := traceLen - int(float64(traceLen)*sim.WarmupFrac)

	// Traces are synthesized once, outside every timer; training
	// amortizes synthesis across every sample.
	traces := make(map[string]*trace.Trace)
	for _, bench := range benches {
		tr, err := trace.ForBenchmark(bench, traceLen)
		if err != nil {
			b.Fatal(err)
		}
		traces[bench] = tr
	}
	seed := eval.Func(func(cfg arch.Config, bench string) (float64, float64, error) {
		res, err := sim.Run(cfg, traces[bench])
		if err != nil {
			return 0, 0, err
		}
		return res.BIPS, power.Watts(res), nil
	})

	measured := make(map[string]float64)
	var baseline []eval.Result
	datasetBench := func(path string, backend eval.Evaluator) func(b *testing.B) {
		return func(b *testing.B) {
			eng := eval.NewEngine(backend, eval.Options{Name: "train-" + path})
			// One full pass outside the timer: like trace synthesis, the
			// production path's outcome memo is populated once per geometry
			// and amortized across the whole training sweep (and every
			// study that follows), so the timed iterations measure
			// steady-state throughput on both paths.
			if _, err := eng.EvaluateBatch(context.Background(), reqs); err != nil {
				b.Fatal(err)
			}
			var out []eval.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				out, err = eng.EvaluateBatch(context.Background(), reqs)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runs := float64(len(reqs) * b.N)
			runsPerSec := runs / b.Elapsed().Seconds()
			b.ReportMetric(runsPerSec, "runs/s")
			b.ReportMetric(runsPerSec*float64(timedPerRun)/1e6, "MInst/s")
			measured[path] = runsPerSec
			if baseline == nil {
				baseline = append([]eval.Result(nil), out...)
			} else {
				for i := range out {
					if out[i] != baseline[i] {
						b.Fatalf("path=%s: run %d = %+v diverges from baseline %+v",
							path, i, out[i], baseline[i])
					}
				}
			}
		}
	}
	// Seed first so the fast path's divergence check runs against it.
	b.Run("path=seed", datasetBench("seed", seed))
	b.Run("path=fast", datasetBench("fast", eval.NewSimulator(traceLen)))

	fastRate, seedRate := measured["fast"], measured["seed"]
	if fastRate > 0 && seedRate > 0 {
		type rate struct {
			Path        string  `json:"path"`
			RunsPerSec  float64 `json:"runs_per_sec"`
			MInstPerSec float64 `json:"timed_minst_per_sec"`
		}
		report := struct {
			Benchmarks  []string `json:"benchmarks"`
			Configs     int      `json:"configs"`
			TraceLen    int      `json:"trace_len"`
			TimedPerRun int      `json:"timed_instructions_per_run"`
			NumCPU      int      `json:"num_cpu"`
			Rates       []rate   `json:"rates"`
			FastSpeedup float64  `json:"fast_speedup"`
		}{
			Benchmarks:  benches,
			Configs:     len(points),
			TraceLen:    traceLen,
			TimedPerRun: timedPerRun,
			NumCPU:      runtime.NumCPU(),
			Rates: []rate{
				{Path: "seed", RunsPerSec: seedRate, MInstPerSec: seedRate * float64(timedPerRun) / 1e6},
				{Path: "fast", RunsPerSec: fastRate, MInstPerSec: fastRate * float64(timedPerRun) / 1e6},
			},
			FastSpeedup: fastRate / seedRate,
		}
		data, err := json.MarshalIndent(report, "", " ")
		if err != nil {
			b.Fatal(err)
		}
		if err := atomicio.WriteFile("BENCH_train.json", append(data, '\n'), 0o644); err != nil {
			b.Logf("writing BENCH_train.json: %v", err)
		}
		logFigure(b, fmt.Sprintf(
			"dataset build: fast %.0f runs/s, seed %.0f runs/s (%.1fx); %d runs of %d timed instructions",
			fastRate, seedRate, fastRate/seedRate, len(reqs), timedPerRun))
	}
}

// BenchmarkFigure3ParetoFrontier reproduces the frontier construction and
// its simulator validation.
func BenchmarkFigure3ParetoFrontier(b *testing.B) {
	e := sharedFixture(b)
	results := paretoResults(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := paretostudy.Run(e, "mcf", paretostudy.Options{DelayTargets: 40}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, bench := range []string{"ammp", "mcf"} {
		if r, ok := results[bench]; ok {
			logFigure(b, report.Figure3(r))
		}
	}
}

// BenchmarkFigure4ParetoError reproduces the frontier prediction-error
// distributions.
func BenchmarkFigure4ParetoError(b *testing.B) {
	results := paretoResults(b)
	b.ResetTimer()
	var perf, pow float64
	for i := 0; i < b.N; i++ {
		var ok bool
		perf, pow, ok = paretostudy.ErrorSummary(results)
		if !ok {
			b.Fatal("no frontier validation data")
		}
	}
	b.StopTimer()
	logFigure(b, report.Figure4(results))
	logFigure(b, fmt.Sprintf("frontier medians: perf %.1f%%, power %.1f%%", perf*100, pow*100))
}

// BenchmarkTable2EfficiencyOptima reproduces the per-benchmark bips^3/w
// optima with their model-vs-simulation errors.
func BenchmarkTable2EfficiencyOptima(b *testing.B) {
	e := sharedFixture(b)
	results := paretoResults(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := heterostudy.FindOptima(e); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	logFigure(b, report.Table2(results))
}

func depthResults(b *testing.B) (map[string]*depthstudy.Result, *depthstudy.SuiteAverage) {
	b.Helper()
	e := sharedFixture(b)
	if fixture.depth == nil {
		res, err := depthstudy.RunSuite(e, depthstudy.Options{SimulateValidation: true})
		if err != nil {
			b.Fatal(err)
		}
		avg, err := depthstudy.Average(res)
		if err != nil {
			b.Fatal(err)
		}
		fixture.depth = res
		fixture.depthAvg = avg
	}
	return fixture.depth, fixture.depthAvg
}

// BenchmarkFigure5aDepthEfficiency reproduces the original-vs-enhanced
// depth analysis.
func BenchmarkFigure5aDepthEfficiency(b *testing.B) {
	e := sharedFixture(b)
	_, avg := depthResults(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := depthstudy.Run(e, "gzip", depthstudy.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	logFigure(b, report.Figure5a(avg))
}

// BenchmarkFigure5bTopCacheSizes reproduces the D-L1 distribution among
// the most efficient designs at each depth.
func BenchmarkFigure5bTopCacheSizes(b *testing.B) {
	e := sharedFixture(b)
	results, _ := depthResults(b)
	b.ResetTimer()
	var rendered string
	for i := 0; i < b.N; i++ {
		rendered = report.Figure5b(results, e.StudySpace)
	}
	b.StopTimer()
	logFigure(b, rendered)
}

// BenchmarkFigure6DepthValidation reproduces the predicted-vs-simulated
// depth efficiency comparison.
func BenchmarkFigure6DepthValidation(b *testing.B) {
	results, avg := depthResults(b)
	b.ResetTimer()
	var out *depthstudy.SuiteAverage
	for i := 0; i < b.N; i++ {
		var err error
		out, err = depthstudy.Average(results)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	_ = out
	logFigure(b, report.Figure6(avg))
}

// BenchmarkFigure7PerfPowerDecomposition decomposes the depth validation
// into its performance and power components.
func BenchmarkFigure7PerfPowerDecomposition(b *testing.B) {
	results, _ := depthResults(b)
	b.ResetTimer()
	var rendered string
	for i := 0; i < b.N; i++ {
		for _, bench := range []string{"gzip", "mcf"} {
			if r, ok := results[bench]; ok {
				rendered = report.Figure7(r)
			}
		}
	}
	b.StopTimer()
	for _, bench := range []string{"gzip", "mcf"} {
		if r, ok := results[bench]; ok {
			logFigure(b, report.Figure7(r))
		}
	}
	_ = rendered
}

func heteroResult(b *testing.B) *heterostudy.Result {
	b.Helper()
	e := sharedFixture(b)
	if fixture.hetero == nil {
		res, err := heterostudy.Run(e, nil, heterostudy.Options{
			SimulateValidation: true,
			Seed:               benchOptions().Seed,
		})
		if err != nil {
			b.Fatal(err)
		}
		fixture.hetero = res
	}
	return fixture.hetero
}

// BenchmarkTable4CompromiseArchitectures reproduces the K=4 compromise
// cores from K-means clustering of the per-benchmark optima.
func BenchmarkTable4CompromiseArchitectures(b *testing.B) {
	e := sharedFixture(b)
	res := heteroResult(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := heterostudy.Run(e, nil, heterostudy.Options{
			MaxClusters: 4,
			Seed:        uint64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	logFigure(b, report.Table4(res))
}

// BenchmarkFigure8DelayPowerClusters reproduces the delay-power scatter
// of optima and compromises.
func BenchmarkFigure8DelayPowerClusters(b *testing.B) {
	res := heteroResult(b)
	b.ResetTimer()
	var rendered string
	for i := 0; i < b.N; i++ {
		rendered = report.Figure8(res)
	}
	b.StopTimer()
	logFigure(b, rendered)
}

// BenchmarkFigure9HeterogeneityGains reproduces the efficiency-gain curve
// versus cluster count, predicted and simulated.
func BenchmarkFigure9HeterogeneityGains(b *testing.B) {
	e := sharedFixture(b)
	res := heteroResult(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := heterostudy.Run(e, nil, heterostudy.Options{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	logFigure(b, report.Figure9(res, e.Benchmarks()))
}

// ablationValidate trains a one-benchmark explorer with the given spec
// and reports overall median validation errors.
func ablationValidate(b *testing.B, spec core.SpecBuilder, samples int) (perf, pow float64) {
	b.Helper()
	opts := benchOptions()
	opts.Benchmarks = []string{"mesa"}
	opts.Spec = spec
	if samples > 0 {
		opts.TrainSamples = samples
	}
	e, err := core.New(opts)
	if err != nil {
		b.Fatal(err)
	}
	if err := e.Train(); err != nil {
		b.Fatal(err)
	}
	rep, err := e.Validate(0)
	if err != nil {
		b.Fatal(err)
	}
	return rep.OverallMedians()
}

// BenchmarkAblationSplineVsLinear quantifies the value of restricted
// cubic splines (paper Section 3.3) against an all-linear model.
func BenchmarkAblationSplineVsLinear(b *testing.B) {
	var rows []string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p1, w1 := ablationValidate(b, core.PaperSpec, 0)
		p2, w2 := ablationValidate(b, core.LinearSpec, 0)
		rows = []string{
			fmt.Sprintf("paper spec (splines):  perf %.1f%%  power %.1f%%", p1*100, w1*100),
			fmt.Sprintf("linear-only ablation:  perf %.1f%%  power %.1f%%", p2*100, w2*100),
		}
	}
	b.StopTimer()
	logFigure(b, "Ablation: splines vs linear predictors (mesa)\n"+rows[0]+"\n"+rows[1])
}

// BenchmarkAblationResponseTransform quantifies the sqrt/log response
// transformations against fitting on the raw scale.
func BenchmarkAblationResponseTransform(b *testing.B) {
	var rows []string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p1, w1 := ablationValidate(b, core.PaperSpec, 0)
		p2, w2 := ablationValidate(b, core.UntransformedSpec, 0)
		rows = []string{
			fmt.Sprintf("transformed responses: perf %.1f%%  power %.1f%%", p1*100, w1*100),
			fmt.Sprintf("identity ablation:     perf %.1f%%  power %.1f%%", p2*100, w2*100),
		}
	}
	b.StopTimer()
	logFigure(b, "Ablation: response transforms (mesa)\n"+rows[0]+"\n"+rows[1])
}

// BenchmarkAblationInteractions quantifies the domain-knowledge
// interaction terms of Section 3.2.
func BenchmarkAblationInteractions(b *testing.B) {
	var rows []string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p1, w1 := ablationValidate(b, core.PaperSpec, 0)
		p2, w2 := ablationValidate(b, core.NoInteractionSpec, 0)
		rows = []string{
			fmt.Sprintf("with interactions:    perf %.1f%%  power %.1f%%", p1*100, w1*100),
			fmt.Sprintf("without interactions: perf %.1f%%  power %.1f%%", p2*100, w2*100),
		}
	}
	b.StopTimer()
	logFigure(b, "Ablation: predictor interactions (mesa)\n"+rows[0]+"\n"+rows[1])
}

// BenchmarkAblationSampleSize sweeps the training-set size, the paper's
// central tractability lever (Section 2.3: 1,000 samples suffice).
func BenchmarkAblationSampleSize(b *testing.B) {
	sizes := []int{100, 200, 400, 800}
	var rows []string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, n := range sizes {
			p, w := ablationValidate(b, core.PaperSpec, n)
			rows = append(rows, fmt.Sprintf("n=%4d: perf %.1f%%  power %.1f%%", n, p*100, w*100))
		}
	}
	b.StopTimer()
	out := "Ablation: training sample size (mesa)"
	for _, r := range rows {
		out += "\n" + r
	}
	logFigure(b, out)
}

// BenchmarkExtensionHeuristicSearch exercises the paper's future-work
// extension: heuristic search over the models instead of exhaustive
// prediction. Hill climbing should find the same bips^3/w optimum as the
// 262,500-point sweep in a few thousand model evaluations.
func BenchmarkExtensionHeuristicSearch(b *testing.B) {
	e := sharedFixture(b)
	perf, pow, err := e.Models("mesa")
	if err != nil {
		b.Fatal(err)
	}
	obj := func(cfgs []arch.Config) ([]float64, error) {
		scores := make([]float64, len(cfgs))
		for i, cfg := range cfgs {
			if pb, pw := eval.PredictInterpreted(perf, pow, cfg); pb > 0 && pw > 0 {
				scores[i] = metrics.BIPS3W(pb, pw)
			}
		}
		return scores, nil
	}
	// Exhaustive ground truth once.
	preds, err := e.ExhaustivePredict("mesa")
	if err != nil {
		b.Fatal(err)
	}
	exhaustive := 0.0
	for _, p := range preds {
		if p.BIPS > 0 && p.Watts > 0 {
			if eff := metrics.BIPS3W(p.BIPS, p.Watts); eff > exhaustive {
				exhaustive = eff
			}
		}
	}
	b.ResetTimer()
	var res *search.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = search.HillClimbBatch(e.StudySpace, obj, search.Options{Seed: 7, Restarts: 12})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	logFigure(b, fmt.Sprintf(
		"Extension: hill climbing reached %.4g vs exhaustive %.4g (%.1f%%) in %d evaluations (sweep: %d)",
		res.BestScore, exhaustive, 100*res.BestScore/exhaustive,
		res.Evaluations, e.StudySpace.Size()))
}

// BenchmarkExtensionInOrderCores probes the paper's second future-work
// extension — in-order execution as a design parameter — and with it the
// Davis-vs-Huh question from the paper's related work: are many mediocre
// in-order cores or fewer aggressive out-of-order cores more
// power-performance efficient?
func BenchmarkExtensionInOrderCores(b *testing.B) {
	traceLen := benchOptions().TraceLen
	benches := []string{"ammp", "gzip", "mcf", "mesa"}
	type row struct {
		bench            string
		oooEff, inoEff   float64
		oooBIPS, inoBIPS float64
		oooW, inoW       float64
	}
	var rows []row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, bench := range benches {
			tr, err := trace.ForBenchmark(bench, traceLen)
			if err != nil {
				b.Fatal(err)
			}
			ooo := arch.Baseline()
			ino := arch.Baseline()
			ino.InOrder = true
			ro, err := sim.Run(ooo, tr)
			if err != nil {
				b.Fatal(err)
			}
			ri, err := sim.Run(ino, tr)
			if err != nil {
				b.Fatal(err)
			}
			wo, wi := power.Watts(ro), power.Watts(ri)
			rows = append(rows, row{
				bench:   bench,
				oooEff:  metrics.BIPS3W(ro.BIPS, wo),
				inoEff:  metrics.BIPS3W(ri.BIPS, wi),
				oooBIPS: ro.BIPS, inoBIPS: ri.BIPS,
				oooW: wo, inoW: wi,
			})
		}
	}
	b.StopTimer()
	t := report.NewTable("Extension: out-of-order vs in-order baseline cores",
		"bench", "ooo bips", "ino bips", "ooo W", "ino W", "ooo eff", "ino eff", "ino/ooo")
	for _, r := range rows {
		t.AddRow(r.bench,
			fmt.Sprintf("%.2f", r.oooBIPS), fmt.Sprintf("%.2f", r.inoBIPS),
			fmt.Sprintf("%.1f", r.oooW), fmt.Sprintf("%.1f", r.inoW),
			fmt.Sprintf("%.4f", r.oooEff), fmt.Sprintf("%.4f", r.inoEff),
			fmt.Sprintf("%.2f", r.inoEff/r.oooEff))
	}
	logFigure(b, t.String())
}

// BenchmarkExtensionCacheAssociativity sweeps the D-L1 associativity
// override, the other parameter the paper plans to add to its models.
func BenchmarkExtensionCacheAssociativity(b *testing.B) {
	traceLen := benchOptions().TraceLen
	tr, err := trace.ForBenchmark("twolf", traceLen)
	if err != nil {
		b.Fatal(err)
	}
	assocs := []int{1, 2, 4, 8}
	var lines []string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lines = lines[:0]
		for _, a := range assocs {
			cfg := arch.Baseline()
			cfg.DL1Assoc = a
			res, err := sim.Run(cfg, tr)
			if err != nil {
				b.Fatal(err)
			}
			w := power.Watts(res)
			lines = append(lines, fmt.Sprintf(
				"assoc %d: dl1 miss %.2f%%  bips %.3f  watts %.1f  eff %.4f",
				a, 100*float64(res.Activity.DL1Miss)/float64(res.Activity.DL1Access),
				res.BIPS, w, metrics.BIPS3W(res.BIPS, w)))
		}
	}
	b.StopTimer()
	out := "Extension: D-L1 associativity sweep (twolf)"
	for _, l := range lines {
		out += "\n" + l
	}
	logFigure(b, out)
}

// BenchmarkSimulatorThroughput measures the detailed simulator itself,
// the unit of cost the regression methodology amortizes.
func BenchmarkSimulatorThroughput(b *testing.B) {
	tr, err := trace.ForBenchmark("gcc", benchOptions().TraceLen)
	if err != nil {
		b.Fatal(err)
	}
	cfg := arch.Baseline()
	e := sharedFixture(b)
	_ = e
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := coreSimulate(cfg, tr.Name, benchOptions().TraceLen); err != nil {
			b.Fatal(err)
		}
	}
}

// coreSimulate is a tiny wrapper so the throughput benchmark measures an
// uncached simulation path.
func coreSimulate(cfg arch.Config, bench string, traceLen int) (float64, float64, error) {
	opts := core.DefaultOptions()
	opts.TraceLen = traceLen
	opts.Benchmarks = []string{bench}
	e, err := core.New(opts)
	if err != nil {
		return 0, 0, err
	}
	return e.Simulate(cfg, bench)
}

// BenchmarkRegressionFitFullSpec measures fitting one paper-spec model on
// a 1000-sample training set, the paper's "numerically solving a system
// of linear equations" cost.
func BenchmarkRegressionFitFullSpec(b *testing.B) {
	e := sharedFixture(b)
	// Rebuild a dataset from the live models' training residual path is
	// private; instead time a fresh fit through the public API at the
	// configured budget on one benchmark.
	opts := benchOptions()
	opts.Benchmarks = []string{"gzip"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fresh, err := core.New(opts)
		if err != nil {
			b.Fatal(err)
		}
		if err := fresh.Train(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	perf, _, err := e.Models("gzip")
	if err != nil {
		b.Fatal(err)
	}
	// The summary's first two lines: sample and coefficient counts, R2,
	// adjusted R2, RSE and conditioning.
	head := strings.SplitN(perf.Summary(), "\n", 3)
	logFigure(b, "gzip performance model: "+head[0]+"; "+head[1])
}

// BenchmarkPredictionThroughput measures single-point prediction, the
// operation the paper quotes as "thousands of predictions in a few
// seconds".
func BenchmarkPredictionThroughput(b *testing.B) {
	e := sharedFixture(b)
	perf, pow, err := e.Models("gcc")
	if err != nil {
		b.Fatal(err)
	}
	cfg := arch.Baseline()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		bips, watts := eval.PredictInterpreted(perf, pow, cfg)
		sink += bips + watts
	}
	b.StopTimer()
	if sink <= 0 {
		b.Fatal("predictions vanished")
	}
}

// BenchmarkCompiledPredict compares single-point prediction through the
// two evaluation paths: the interpreted models and the compiled plan
// (the per-request path for on-grid configurations). Each iteration
// predicts both bips and watts.
func BenchmarkCompiledPredict(b *testing.B) {
	e := sharedFixture(b)
	perf, pow, err := e.Models("gcc")
	if err != nil {
		b.Fatal(err)
	}
	plan, err := eval.CompilePair(perf, pow, e.StudySpace)
	if err != nil {
		b.Fatal(err)
	}
	cfg := e.StudySpace.Config(baselinePoint)
	wantB, wantW := eval.PredictInterpreted(perf, pow, cfg)
	want := wantB + wantW
	// The sinks add the same value b.N times, so they must equal the
	// same repeated sum bit for bit (want*n rounds differently).
	check := func(b *testing.B, sink float64, n int) {
		b.Helper()
		var total float64
		for i := 0; i < n; i++ {
			total += want
		}
		if sink != total {
			b.Fatalf("paths diverged: sink %v, want %v", sink, total)
		}
	}
	b.Run("interpreted", func(b *testing.B) {
		var sink float64
		for i := 0; i < b.N; i++ {
			bips, watts := eval.PredictInterpreted(perf, pow, cfg)
			sink += bips + watts
		}
		b.StopTimer()
		check(b, sink, b.N)
	})
	b.Run("plan", func(b *testing.B) {
		var sink float64
		for i := 0; i < b.N; i++ {
			bips, watts, ok := plan.EvalConfig(cfg)
			if !ok {
				b.Fatal("baseline point is off the plan's grid")
			}
			sink += bips + watts
		}
		b.StopTimer()
		check(b, sink, b.N)
	})
}

// BenchmarkBoxplotConstruction measures the statistics substrate on a
// 37,500-value population (one depth bin of the enhanced analysis).
func BenchmarkBoxplotConstruction(b *testing.B) {
	data := make([]float64, 37500)
	for i := range data {
		data[i] = float64(i%977) / 977
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		box := stats.NewBoxplot(data)
		if box.N != len(data) {
			b.Fatal("bad boxplot")
		}
	}
}

// BenchmarkSplineBasis measures the restricted-cubic-spline evaluation in
// the prediction hot path.
func BenchmarkSplineBasis(b *testing.B) {
	knots := regression.Knots([]float64{9, 12, 15, 18, 21, 24, 27, 30, 33, 36}, 4)
	if knots == nil {
		b.Fatal("no knots")
	}
	buf := make([]float64, 0, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = regression.AppendSplineBasis(buf[:0], 19.5, knots)
	}
	_ = buf
}
