package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/core/depthstudy"
	"repro/internal/core/heterostudy"
	"repro/internal/core/paretostudy"
	"repro/internal/eval"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/regression"
	"repro/internal/report"
	"repro/internal/search"
	"repro/internal/trace"
)

// pipeline repeats dse's commands in process, one span around each call
// into a layer, writing the same text dse prints and, with a CSV
// directory, the same CSV files.
type pipeline struct {
	t      *tracer
	root   int
	ex     *core.Explorer
	r      *result
	text   bytes.Buffer
	csvDir string
	csv    countingWriter
}

func newPipeline(t *tracer, root int, r *result, csvDir string) *pipeline {
	return &pipeline{t: t, root: root, r: r, csvDir: csvDir}
}

// load builds a fresh Explorer from the model set, as each dse process
// does.
func (p *pipeline) load(e *env) error {
	return p.t.do("core.load_models", p.root, func() (err error) {
		p.ex, err = e.loadExplorer()
		return err
	})
}

// synth generates each benchmark's trace ahead of its first simulation,
// so the simulator finds it memoized.
func (p *pipeline) synth(benches []string, n int) error {
	for _, b := range benches {
		if err := p.t.do("trace.synth", p.root, func() error {
			_, err := trace.ForBenchmark(b, n)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// sweep runs the exhaustive sweep of every benchmark before a study, so
// the study's span excludes it; the Explorer caches the result.
func (p *pipeline) sweep() error {
	before := p.ex.ModelStats().SweptPoints
	err := p.t.do("core.sweep", p.root, func() error {
		for _, b := range p.ex.Benchmarks() {
			if _, err := p.ex.ExhaustivePredict(b); err != nil {
				return err
			}
		}
		return nil
	})
	p.r.metrics["model.swept_points"] += float64(p.ex.ModelStats().SweptPoints - before)
	return err
}

// study runs one study's logic inside its span and counts the
// simulations it asked for.
func (p *pipeline) study(name string, fn func() error) error {
	before := p.ex.SimStats().Evaluations
	err := p.t.do("study."+name, p.root, fn)
	p.r.metrics["study."+name+"_sim_evaluations"] += float64(p.ex.SimStats().Evaluations - before)
	return err
}

func (p *pipeline) print(fn func(w io.Writer)) {
	_ = p.t.do("report.text", p.root, func() error {
		fn(&p.text)
		return nil
	})
}

// writeCSV writes one CSV through a counting writer, unbuffered, as dse
// does.
func (p *pipeline) writeCSV(name string, emit func(io.Writer) error) error {
	if p.csvDir == "" {
		return nil
	}
	return p.t.do("report.csv", p.root, func() error {
		f, err := os.Create(filepath.Join(p.csvDir, name))
		if err != nil {
			return err
		}
		p.csv.w = f
		if err := emit(&p.csv); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	})
}

func (p *pipeline) validate() error {
	var rep *core.ValidationReport
	before := p.ex.SimStats().Evaluations
	if err := p.t.do("core.validate", p.root, func() (err error) {
		rep, err = p.ex.Validate(0)
		return err
	}); err != nil {
		return err
	}
	p.r.metrics["validate.sim_evaluations"] += float64(p.ex.SimStats().Evaluations - before)
	perf, pow := rep.OverallMedians()
	p.r.metrics["model.perf_err_p50_pct"], p.r.metrics["model.power_err_p50_pct"] = 100*perf, 100*pow
	p.print(func(w io.Writer) { fmt.Fprintln(w, report.Figure1(rep)) })
	return p.writeCSV("figure1.csv", func(w io.Writer) error { return report.Figure1CSV(w, rep) })
}

func (p *pipeline) pareto(simulate bool) error {
	if err := p.sweep(); err != nil {
		return err
	}
	var results map[string]*paretostudy.Result
	if err := p.study("pareto", func() (err error) {
		results, err = paretostudy.RunSuite(p.ex, paretostudy.Options{DelayTargets: 40, SimulateFrontier: simulate})
		return err
	}); err != nil {
		return err
	}
	p.print(func(w io.Writer) {
		shown := 0
		for _, bench := range []string{"ammp", "mcf"} {
			if r, ok := results[bench]; ok {
				fmt.Fprintln(w, report.Figure2(p.ex.StudySpace, r))
				fmt.Fprintln(w, report.Figure3(r))
				shown++
			}
		}
		if shown == 0 {
			first := results[p.ex.Benchmarks()[0]]
			fmt.Fprintln(w, report.Figure2(p.ex.StudySpace, first))
			fmt.Fprintln(w, report.Figure3(first))
		}
		if simulate {
			fmt.Fprintln(w, report.Figure4(results))
		}
		fmt.Fprintln(w, report.Table2(results))
	})
	for _, bench := range p.ex.Benchmarks() {
		r := results[bench]
		if err := p.writeCSV("figure2_"+bench+".csv", func(w io.Writer) error {
			return report.Figure2CSV(w, p.ex.StudySpace, r)
		}); err != nil {
			return err
		}
		if err := p.writeCSV("figure3_"+bench+".csv", func(w io.Writer) error {
			return report.Figure3CSV(w, r)
		}); err != nil {
			return err
		}
	}
	return p.writeCSV("table2.csv", func(w io.Writer) error { return report.Table2CSV(w, results) })
}

func (p *pipeline) depth(simulate bool) error {
	if err := p.sweep(); err != nil {
		return err
	}
	var results map[string]*depthstudy.Result
	var avg *depthstudy.SuiteAverage
	if err := p.study("depth", func() (err error) {
		if results, err = depthstudy.RunSuite(p.ex, depthstudy.Options{SimulateValidation: simulate}); err != nil {
			return err
		}
		avg, err = depthstudy.Average(results)
		return err
	}); err != nil {
		return err
	}
	p.print(func(w io.Writer) {
		fmt.Fprintln(w, report.Figure5a(avg))
		fmt.Fprintln(w, report.Figure5b(results, p.ex.StudySpace))
		if simulate {
			fmt.Fprintln(w, report.Figure6(avg))
			for _, bench := range []string{"gzip", "mcf"} {
				if r, ok := results[bench]; ok {
					fmt.Fprintln(w, report.Figure7(r))
				}
			}
		}
	})
	return p.writeCSV("figure5a.csv", func(w io.Writer) error { return report.Figure5aCSV(w, avg) })
}

func (p *pipeline) hetero(simulate bool) error {
	if err := p.sweep(); err != nil {
		return err
	}
	var res *heterostudy.Result
	if err := p.study("hetero", func() (err error) {
		res, err = heterostudy.Run(p.ex, nil, heterostudy.Options{SimulateValidation: simulate, Seed: p.ex.Options().Seed})
		return err
	}); err != nil {
		return err
	}
	p.print(func(w io.Writer) {
		fmt.Fprintln(w, report.Table4(res))
		fmt.Fprintln(w, report.Figure8(res))
		fmt.Fprintln(w, report.Figure9(res, p.ex.Benchmarks()))
	})
	return p.writeCSV("figure9.csv", func(w io.Writer) error { return report.Figure9CSV(w, res, p.ex.Benchmarks()) })
}

// search is dse's search command: hill climbing over batched
// predictions against the exhaustive optimum.
func (p *pipeline) search() error {
	if err := p.sweep(); err != nil {
		return err
	}
	space := p.ex.StudySpace
	t := report.NewTable("Heuristic search vs exhaustive prediction (modeled bips^3/w optimum)",
		"bench", "exhaustive best", "hill-climb best", "evals", "match")
	if err := p.study("search", func() error {
		for _, bench := range p.ex.Benchmarks() {
			preds, err := p.ex.ExhaustivePredict(bench)
			if err != nil {
				return err
			}
			bestEff := 0.0
			for _, pr := range preds {
				if pr.BIPS > 0 && pr.Watts > 0 {
					if eff := metrics.BIPS3W(pr.BIPS, pr.Watts); eff > bestEff {
						bestEff = eff
					}
				}
			}
			obj := func(cfgs []arch.Config) ([]float64, error) {
				preds, err := p.ex.PredictBatch(context.Background(), eval.RequestsFor(cfgs, bench))
				if err != nil {
					return nil, err
				}
				scores := make([]float64, len(preds))
				for i, pr := range preds {
					if pr.BIPS > 0 && pr.Watts > 0 {
						scores[i] = metrics.BIPS3W(pr.BIPS, pr.Watts)
					}
				}
				return scores, nil
			}
			res, err := search.HillClimbBatch(space, obj, search.Options{Seed: p.ex.Options().Seed, Restarts: 12})
			if err != nil {
				return err
			}
			t.AddRow(bench, fmt.Sprintf("%.4g", bestEff), fmt.Sprintf("%.4g", res.BestScore),
				fmt.Sprintf("%d", res.Evaluations), fmt.Sprintf("%.1f%%", 100*res.BestScore/bestEff))
		}
		return nil
	}); err != nil {
		return err
	}
	p.print(func(w io.Writer) {
		fmt.Fprintln(w, t.String())
		fmt.Fprintf(w, "exhaustive sweep evaluates %d designs per benchmark\n", space.Size())
	})
	return nil
}

// ledger reports the per-layer metrics of a batch traced run: each
// layer's self time, the simulator counters of every Explorer the run
// used, and the coverage of the traced wall time. core.dataset is what
// core.train spends outside the fit and compile calls measured again
// on their own.
func (p *pipeline) ledger(wall time.Duration, explorers ...*core.Explorer) {
	self := p.t.selfTimes()
	m := p.r.metrics
	fit, compile := self["regression.fit"], self["regression.compile"]
	layers := map[string]time.Duration{
		"trace.synth_ms":        self["trace.synth"],
		"regression.fit_ms":     fit,
		"regression.compile_ms": compile,
		"core.load_models_ms":   self["core.load_models"],
		"core.validate_ms":      self["core.validate"],
		"core.sweep_ms":         self["core.sweep"],
		"study.pareto_ms":       self["study.pareto"],
		"study.depth_ms":        self["study.depth"],
		"study.hetero_ms":       self["study.hetero"],
		"study.search_ms":       self["study.search"],
		"report.text_ms":        self["report.text"],
		"report.csv_ms":         self["report.csv"],
	}
	if train := self["core.train"]; train > 0 {
		m["core.train_ms"] = ms(train)
		layers["core.dataset_ms"] = train - fit - compile
	}
	var covered time.Duration
	for name, d := range layers {
		m[name] = ms(d)
		covered += d
	}
	m["trace.wall_ms"] = ms(wall)
	m["trace.layer_coverage_pct"] = 100 * float64(covered) / float64(wall)
	if sweep := self["core.sweep"]; sweep > 0 {
		m["core.sweep_mpred_per_s"] = m["model.swept_points"] / sweep.Seconds() / 1e6
	}
	m["report.csv_bytes"] = float64(p.csv.bytes)
	m["report.csv_write_calls"] = float64(p.csv.calls)
	var evals, warmHits, warmMisses, hits, misses int64
	for _, ex := range explorers {
		s := ex.SimStats()
		evals += s.Evaluations
		warmHits, warmMisses = warmHits+s.WarmHits, warmMisses+s.WarmMisses
		hits, misses = hits+s.CacheHits, misses+s.CacheMisses
	}
	m["sim.evaluations"] = float64(evals)
	m["sim.warm_hit_ratio"] = ratio(warmHits, warmHits+warmMisses)
	m["sim.cache_hit_ratio"] = ratio(hits, hits+misses)
}

// timedInstructions reads the simulator's always-on instruction counter.
func timedInstructions() int64 { return obs.DefaultRegistry.Counter("sim.instructions").Load() }

func tracedReportPaper(ctx context.Context, e *env, untraced *result) (*result, error) {
	r := newResult()
	t := newTracer("report-paper", e.seed)
	root := t.open("workload.report-paper", 0)
	p := newPipeline(t, root, r, "")
	opts := e.options(false)
	if err := p.synth(e.b.suite(), opts.TraceLen); err != nil {
		return nil, err
	}
	ex, err := core.New(opts)
	if err != nil {
		return nil, err
	}
	p.ex = ex
	inst := timedInstructions()
	if err := t.do("core.train", root, ex.Train); err != nil {
		return nil, err
	}
	inst = timedInstructions() - inst
	// Fit and compile again on the same data, each in its own span, to
	// split the training time by layer.
	for _, b := range ex.Benchmarks() {
		if err := t.do("regression.fit", root, func() error {
			if _, err := regression.Fit(core.PaperSpec(core.ColBIPS, regression.Sqrt), ex.TrainingData(b)); err != nil {
				return err
			}
			_, err := regression.Fit(core.PaperSpec(core.ColWatts, regression.Log), ex.TrainingData(b))
			return err
		}); err != nil {
			return nil, err
		}
		perf, pow, err := ex.Models(b)
		if err != nil {
			return nil, err
		}
		if err := t.do("regression.compile", root, func() error {
			_, err := eval.CompilePair(perf, pow, ex.StudySpace)
			return err
		}); err != nil {
			return nil, err
		}
	}
	for _, step := range []func() error{p.validate, func() error { return p.pareto(true) },
		func() error { return p.depth(true) }, func() error { return p.hetero(true) }} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	t.close(root)
	remeasured := t.total("regression.fit") + t.total("regression.compile")
	wall := t.total("workload.report-paper") - remeasured
	p.ledger(wall, ex)
	if inst > 0 {
		dataset := t.total("core.train") - remeasured
		r.metrics["sim.ns_per_timed_inst"] = float64(dataset) / float64(inst)
	}
	r.metrics["trace_overhead_pct"] = overheadPct(ms(wall), untraced.metrics["latency_p50_ms"])
	r.attempted++
	e.check(r, "report-paper", outputs{Digests: map[string]string{"report-paper/stdout": digest(p.text.Bytes())}})
	return r, e.finishTrace(t)
}

func tracedStudiesModels(ctx context.Context, e *env, untraced *result) (*result, error) {
	r := newResult()
	t := newTracer("studies-models", e.seed)
	root := t.open("workload.studies-models", 0)
	got := outputs{Digests: map[string]string{}}
	var p *pipeline
	var explorers []*core.Explorer
	for _, c := range studyCommands {
		p = newPipeline(t, root, r, "")
		if err := p.load(e); err != nil {
			return nil, err
		}
		explorers = append(explorers, p.ex)
		var err error
		switch c {
		case "pareto":
			err = p.pareto(false)
		case "depth":
			err = p.depth(false)
		case "hetero":
			err = p.hetero(false)
		case "search":
			err = p.search()
		}
		if err != nil {
			return nil, err
		}
		got.Digests["studies-models/"+c] = digest(p.text.Bytes())
	}
	t.close(root)
	wall := t.total("workload.studies-models")
	p.ledger(wall, explorers...)
	r.metrics["trace_overhead_pct"] = overheadPct(ms(wall), untraced.metrics["latency_p50_ms"])
	r.attempted++
	e.check(r, "studies-models", got)
	return r, e.finishTrace(t)
}

func tracedExportCSV(ctx context.Context, e *env, untraced *result) (*result, error) {
	r := newResult()
	dir := filepath.Join(e.work, "csv-traced")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	t := newTracer("export-csv", e.seed)
	root := t.open("workload.export-csv", 0)
	p := newPipeline(t, root, r, dir)
	if err := p.load(e); err != nil {
		return nil, err
	}
	if err := p.synth(e.b.suite(), e.b.prepTracelen); err != nil {
		return nil, err
	}
	for _, step := range []func() error{p.validate, func() error { return p.pareto(false) },
		func() error { return p.depth(false) }, func() error { return p.hetero(false) }} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	t.close(root)
	wall := t.total("workload.export-csv")
	p.ledger(wall, p.ex)
	r.metrics["trace_overhead_pct"] = overheadPct(ms(wall), untraced.metrics["latency_p50_ms"])
	got, err := csvOutputs(dir)
	if err != nil {
		return nil, err
	}
	got.Digests["export-csv/stdout"] = digest(p.text.Bytes())
	r.attempted++
	e.check(r, "export-csv", got)
	if u := untraced.metrics["report.figure5a_unstable_fields"]; u > r.metrics["report.figure5a_unstable_fields"] {
		r.metrics["report.figure5a_unstable_fields"] = u
	}
	return r, e.finishTrace(t)
}
