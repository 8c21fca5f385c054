// Command dse reproduces the paper's design-space studies end to end:
// it samples the 375,000-point design space, simulates the samples, fits
// per-benchmark performance and power regression models, and runs the
// pareto-frontier, pipeline-depth and multiprocessor-heterogeneity
// analyses, printing the paper's tables and figures as text.
//
// Usage:
//
//	dse [flags] <command>
//
// Commands:
//
//	train     fit models and print their summaries
//	validate  model validation error distributions   (Figure 1)
//	pareto    pareto frontier study                   (Figures 2-4, Table 2)
//	depth     pipeline depth study                    (Figures 5-7)
//	hetero    multiprocessor heterogeneity study      (Table 4, Figures 8-9)
//	search    heuristic search vs exhaustive sweep    (future-work extension)
//	report    run everything
//	dataset   simulate the training sample into checkpoints, fitting nothing
//
// The dataset command requires -checkpoint: it writes the per-benchmark
// train-<bench>.ckpt files a checkpointed train writes, byte for byte,
// and a later `-checkpoint d -resume train` fits from them without
// simulating. A killed dataset build finishes with -resume.
//
// Flags control the training budget; see -help.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/core/depthstudy"
	"repro/internal/core/heterostudy"
	"repro/internal/core/paretostudy"
	"repro/internal/eval"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/search"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dse:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dse", flag.ContinueOnError)
	samples := fs.Int("samples", 1000, "training designs sampled uniformly at random (paper: 1000)")
	validation := fs.Int("validation", 100, "validation designs (paper: 100)")
	tracelen := fs.Int("tracelen", 100000, "synthetic trace length per benchmark")
	seed := fs.Uint64("seed", 2007, "sampling seed")
	workers := fs.Int("workers", 0, "evaluation worker goroutines for simulation batches and model sweeps (0 = all cores)")
	tile := fs.Int("tile", 0, "sweep tile size: contiguous design points handed to a worker at a time (0 = default; output is tile-invariant)")
	benchList := fs.String("benchmarks", "", "comma-separated benchmark subset (default: full suite)")
	noSim := fs.Bool("nosim", false, "skip simulator validation passes (model-only, much faster)")
	targets := fs.Int("delaytargets", 40, "delay bins for the discretized pareto frontier")
	saveModels := fs.String("savemodels", "", "write trained models to this JSON file")
	csvDir := fs.String("csvdir", "", "also write each figure's data series as CSV into this directory")
	loadModels := fs.String("loadmodels", "", "load models from this JSON file instead of training")
	traceFile := fs.String("trace", "", "enable span tracing and progress lines; write the span log (JSONL) to this file")
	manifestFile := fs.String("manifest", "", "write a run manifest (JSON) describing this invocation to this file")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	checkpointDir := fs.String("checkpoint", "", "write crash-safe training checkpoints into this directory")
	resume := fs.Bool("resume", false, "resume from checkpoints in the -checkpoint directory (results are bit-identical to an uninterrupted run)")
	deadline := fs.Duration("deadline", 0, "per-batch evaluation deadline (0 = none); an expired batch fails with a deadline error")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("expected exactly one command: train, validate, pareto, depth, hetero, search, report or dataset")
	}
	cmd := fs.Arg(0)

	if *workers < 0 {
		return fmt.Errorf("-workers must be >= 0, got %d", *workers)
	}
	if *tile < 0 {
		return fmt.Errorf("-tile must be >= 0, got %d", *tile)
	}

	if cmd == "dataset" && *checkpointDir == "" {
		return fmt.Errorf("the dataset command requires -checkpoint (its outputs are checkpoint files)")
	}

	// Observability. Tracing (spans, latency histograms, progress lines)
	// is off by default and costs one atomic load per operation; all
	// diagnostic output goes to stderr so study output on `out` is
	// bit-identical with or without these flags.
	if *traceFile != "" {
		// A fresh tracer per traced run: its span log holds only its own
		// spans even when an earlier run shared the process.
		obs.DefaultTracer = obs.NewTracer(obs.DefaultTracer.Capacity())
		obs.Enable(true)
	}
	if *pprofAddr != "" {
		bound, shutdown, err := obs.ServePprof(*pprofAddr)
		if err != nil {
			return err
		}
		defer shutdown()
		fmt.Fprintf(os.Stderr, "dse: pprof listening on http://%s/debug/pprof/\n", bound)
	}
	opts := core.DefaultOptions()
	opts.TrainSamples = *samples
	opts.ValidationSamples = *validation
	opts.TraceLen = *tracelen
	opts.Seed = *seed
	opts.Workers = *workers
	opts.SweepTile = *tile
	if *benchList != "" {
		opts.Benchmarks = strings.Split(*benchList, ",")
	}
	if *resume && *checkpointDir == "" {
		return fmt.Errorf("-resume requires -checkpoint")
	}
	if *checkpointDir != "" {
		if err := os.MkdirAll(*checkpointDir, 0o755); err != nil {
			return err
		}
		opts.CheckpointDir = *checkpointDir
		opts.Resume = *resume
	}
	opts.BatchTimeout = *deadline

	e, err := core.New(opts)
	if err != nil {
		return err
	}

	// The run manifest records what ran over what and where the time went:
	// one JSON per invocation, with per-phase engine-counter deltas cut by
	// StatsEpoch so sequential phases never double-count.
	var man *obs.Manifest
	if *manifestFile != "" {
		man = obs.NewManifest("dse", cmd, args)
		man.Seed = *seed
		man.SpaceSize = e.StudySpace.Size()
		man.SampleSpaceSize = e.SampleSpace.Size()
		man.Benchmarks = e.Benchmarks()
		man.Workers = e.Options().Workers
	}
	phase := func(name string, fn func() error) error {
		if man == nil {
			return fn()
		}
		pt := man.StartPhase(name)
		err := fn()
		sim, model := e.StatsEpoch()
		pt.End(engineStatsMap(sim, model))
		return err
	}

	// Dataset building needs no models.
	if cmd == "dataset" {
		// Skip training entirely.
	} else if *loadModels != "" {
		err = phase("load_models", func() error {
			f, err := os.Open(*loadModels)
			if err != nil {
				return err
			}
			defer f.Close()
			if err := e.LoadModels(f); err != nil {
				return err
			}
			fmt.Fprintf(out, "loaded models from %s\n\n", *loadModels)
			return nil
		})
		if err != nil {
			return err
		}
	} else {
		err = phase("train", func() error {
			start := time.Now()
			fmt.Fprintf(out, "training %d-sample models on %d benchmarks (trace length %d)...\n",
				opts.TrainSamples, len(e.Benchmarks()), opts.TraceLen)
			if err := e.Train(); err != nil {
				return err
			}
			fmt.Fprintf(out, "trained in %.1fs\n\n", time.Since(start).Seconds())
			return nil
		})
		if err != nil {
			return err
		}
	}
	if *saveModels != "" {
		f, err := os.Create(*saveModels)
		if err != nil {
			return err
		}
		if err := e.SaveModels(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "saved models to %s\n\n", *saveModels)
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}

	switch cmd {
	case "train":
		err = phase("summaries", func() error { return cmdTrain(e, out) })
	case "validate":
		err = phase("validate", func() error { return cmdValidate(e, out, *csvDir) })
	case "pareto":
		err = phase("pareto", func() error { return cmdPareto(e, out, *targets, !*noSim, *csvDir) })
	case "depth":
		err = phase("depth", func() error { return cmdDepth(e, out, !*noSim, *csvDir) })
	case "hetero":
		err = phase("hetero", func() error { return cmdHetero(e, out, !*noSim, *csvDir) })
	case "search":
		err = phase("search", func() error { return cmdSearch(e, out) })
	case "dataset":
		err = phase("dataset", func() error {
			start := time.Now()
			if err := e.BuildDataset(context.Background()); err != nil {
				return err
			}
			fmt.Fprintf(out, "built dataset checkpoints (%d samples x %d benchmarks) in %.1fs\n",
				opts.TrainSamples, len(e.Benchmarks()), time.Since(start).Seconds())
			return nil
		})
	case "report":
		for _, st := range []struct {
			name string
			fn   func() error
		}{
			{"validate", func() error { return cmdValidate(e, out, *csvDir) }},
			{"pareto", func() error { return cmdPareto(e, out, *targets, !*noSim, *csvDir) }},
			{"depth", func() error { return cmdDepth(e, out, !*noSim, *csvDir) }},
			{"hetero", func() error { return cmdHetero(e, out, !*noSim, *csvDir) }},
		} {
			if err = phase(st.name, st.fn); err != nil {
				break
			}
		}
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
	if err != nil {
		return err
	}

	if man != nil {
		var tr *obs.Tracer
		if *traceFile != "" {
			tr = obs.DefaultTracer
		}
		man.Finish(obs.DefaultRegistry, tr)
		if err := man.WriteFile(*manifestFile); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "dse: wrote run manifest to %s\n", *manifestFile)
	}
	if *traceFile != "" {
		spans := obs.DefaultTracer.Snapshot()
		if err := obs.WriteSpansFile(*traceFile, spans); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "dse: wrote %d trace spans to %s (%d recorded in total)\n",
			len(spans), *traceFile, obs.DefaultTracer.Total())
	}
	return nil
}

// engineStatsMap flattens both engines' counter deltas into the generic
// stats map a manifest phase carries, dropping zero entries.
func engineStatsMap(sim, model eval.EngineStats) map[string]int64 {
	m := make(map[string]int64)
	set := func(k string, v int64) {
		if v != 0 {
			m[k] = v
		}
	}
	set("sim_evaluations", sim.Evaluations)
	set("sim_batches", sim.BatchCalls)
	set("sim_warm_hits", sim.WarmHits)
	set("sim_warm_misses", sim.WarmMisses)
	set("sim_outcome_walks", sim.OutcomeWalks)
	set("sim_panics_recovered", sim.PanicsRecovered)
	set("sim_guard_checks", sim.GuardChecks)
	set("sim_guard_divergences", sim.GuardDivergences)
	if sim.Degraded {
		set("sim_degraded", 1)
	}
	set("model_evaluations", model.Evaluations)
	set("model_batches", model.BatchCalls)
	set("model_swept_points", model.SweptPoints)
	set("model_panics_recovered", model.PanicsRecovered)
	set("model_guard_checks", model.GuardChecks)
	set("model_guard_divergences", model.GuardDivergences)
	if model.Degraded {
		set("model_degraded", 1)
	}
	if len(m) == 0 {
		return nil
	}
	return m
}

// writeCSV opens dir/name and hands the file to emit, under a
// report.csv span.
func writeCSV(dir, name string, emit func(io.Writer) error) error {
	if dir == "" {
		return nil
	}
	sp := obs.Begin("report.csv", obs.String("file", name))
	defer sp.End()
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printText renders one figure, table or model summary and writes it
// to out, under a report.text span naming it.
func printText(out io.Writer, name string, render func() string) {
	sp := obs.Begin("report.text", obs.String("figure", name))
	defer sp.End()
	fmt.Fprintln(out, render())
}

func cmdTrain(e *core.Explorer, out io.Writer) error {
	for _, bench := range e.Benchmarks() {
		perf, pow, err := e.Models(bench)
		if err != nil {
			return err
		}
		printText(out, "models_"+bench, func() string {
			return fmt.Sprintf("=== %s performance model ===\n%s\n=== %s power model ===\n%s",
				bench, perf.Summary(), bench, pow.Summary())
		})
		if assoc, err := e.PredictorAssociations(bench); err == nil {
			printText(out, "associations_"+bench, func() string {
				t := report.NewTable(
					fmt.Sprintf("%s predictor associations (Spearman rank correlation)", bench),
					"predictor", "perf rho", "power rho")
				for _, a := range assoc {
					t.AddRow(a.Predictor,
						fmt.Sprintf("%+.3f", a.PerfRho),
						fmt.Sprintf("%+.3f", a.PowerRho))
				}
				return t.String()
			})
		}
	}
	return nil
}

func cmdValidate(e *core.Explorer, out io.Writer, csvDir string) error {
	rep, err := e.Validate(0)
	if err != nil {
		return err
	}
	printText(out, "figure1", func() string { return report.Figure1(rep) })
	return writeCSV(csvDir, "figure1.csv", func(w io.Writer) error {
		return report.Figure1CSV(w, rep)
	})
}

func cmdPareto(e *core.Explorer, out io.Writer, targets int, simulate bool, csvDir string) error {
	results, err := paretostudy.RunSuite(e, paretostudy.Options{
		DelayTargets:     targets,
		SimulateFrontier: simulate,
	})
	if err != nil {
		return err
	}
	// Figure 2 for the paper's two representative benchmarks when
	// available, otherwise the first benchmark.
	var shown []string
	for _, bench := range []string{"ammp", "mcf"} {
		if _, ok := results[bench]; ok {
			shown = append(shown, bench)
		}
	}
	if benches := e.Benchmarks(); len(shown) == 0 && len(benches) > 0 {
		shown = benches[:1]
	}
	for _, bench := range shown {
		r := results[bench]
		printText(out, "figure2_"+bench, func() string { return report.Figure2(e.StudySpace, r) })
		printText(out, "figure3_"+bench, func() string { return report.Figure3(r) })
	}
	if simulate {
		printText(out, "figure4", func() string { return report.Figure4(results) })
	}
	printText(out, "table2", func() string { return report.Table2(results) })
	if csvDir != "" {
		// Benchmark order, not map order: a write error mid-run leaves the
		// same files behind every time.
		for _, bench := range e.Benchmarks() {
			r := results[bench]
			if err := writeCSV(csvDir, "figure2_"+bench+".csv", func(w io.Writer) error {
				return report.Figure2CSV(w, e.StudySpace, r)
			}); err != nil {
				return err
			}
			if err := writeCSV(csvDir, "figure3_"+bench+".csv", func(w io.Writer) error {
				return report.Figure3CSV(w, r)
			}); err != nil {
				return err
			}
		}
		if err := writeCSV(csvDir, "table2.csv", func(w io.Writer) error {
			return report.Table2CSV(w, results)
		}); err != nil {
			return err
		}
	}
	return nil
}

func cmdDepth(e *core.Explorer, out io.Writer, simulate bool, csvDir string) error {
	results, err := depthstudy.RunSuite(e, depthstudy.Options{SimulateValidation: simulate})
	if err != nil {
		return err
	}
	avg, err := depthstudy.Average(results)
	if err != nil {
		return err
	}
	printText(out, "figure5a", func() string { return report.Figure5a(avg) })
	printText(out, "figure5b", func() string { return report.Figure5b(results, e.StudySpace) })
	if simulate {
		printText(out, "figure6", func() string { return report.Figure6(avg) })
		for _, bench := range []string{"gzip", "mcf"} {
			if r, ok := results[bench]; ok {
				printText(out, "figure7_"+bench, func() string { return report.Figure7(r) })
			}
		}
	}
	return writeCSV(csvDir, "figure5a.csv", func(w io.Writer) error {
		return report.Figure5aCSV(w, avg)
	})
}

// cmdSearch contrasts heuristic search over the models against the
// exhaustive 262,500-point sweep, the paper's proposed extension for
// larger design spaces.
func cmdSearch(e *core.Explorer, out io.Writer) error {
	space := e.StudySpace
	t := report.NewTable("Heuristic search vs exhaustive prediction (modeled bips^3/w optimum)",
		"bench", "exhaustive best", "hill-climb best", "evals", "match")
	for _, bench := range e.Benchmarks() {
		preds, err := e.ExhaustivePredict(bench)
		if err != nil {
			return err
		}
		bestEff := 0.0
		for _, p := range preds {
			if p.BIPS <= 0 || p.Watts <= 0 {
				continue
			}
			if eff := metrics.BIPS3W(p.BIPS, p.Watts); eff > bestEff {
				bestEff = eff
			}
		}
		// Neighborhoods are scored as batches on the evaluation engine,
		// so each hill-climbing step's candidate moves run concurrently.
		obj := func(cfgs []arch.Config) ([]float64, error) {
			preds, err := e.PredictBatch(context.Background(), eval.RequestsFor(cfgs, bench))
			if err != nil {
				return nil, err
			}
			scores := make([]float64, len(preds))
			for i, p := range preds {
				if p.BIPS > 0 && p.Watts > 0 {
					scores[i] = metrics.BIPS3W(p.BIPS, p.Watts)
				}
			}
			return scores, nil
		}
		res, err := search.HillClimbBatch(space, obj, search.Options{Seed: e.Options().Seed, Restarts: 12})
		if err != nil {
			return err
		}
		t.AddRow(bench,
			fmt.Sprintf("%.4g", bestEff),
			fmt.Sprintf("%.4g", res.BestScore),
			fmt.Sprintf("%d", res.Evaluations),
			fmt.Sprintf("%.1f%%", 100*res.BestScore/bestEff),
		)
	}
	printText(out, "search", func() string {
		return fmt.Sprintf("%s\nexhaustive sweep evaluates %d designs per benchmark", t.String(), space.Size())
	})
	return nil
}

func cmdHetero(e *core.Explorer, out io.Writer, simulate bool, csvDir string) error {
	res, err := heterostudy.Run(e, nil, heterostudy.Options{
		SimulateValidation: simulate,
		Seed:               e.Options().Seed,
	})
	if err != nil {
		return err
	}
	printText(out, "table4", func() string { return report.Table4(res) })
	printText(out, "figure8", func() string { return report.Figure8(res) })
	printText(out, "figure9", func() string { return report.Figure9(res, e.Benchmarks()) })
	return writeCSV(csvDir, "figure9.csv", func(w io.Writer) error {
		return report.Figure9CSV(w, res, e.Benchmarks())
	})
}
