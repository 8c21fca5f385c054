// Command reprobench is the repository's end-to-end benchmark. It builds
// cmd/dse and cmd/dsed from the checkout, runs the workloads below as
// real processes with tracing off, checks every output, and prints each
// end-to-end metric by name with its unit. With -trace 1 it also repeats
// the work in process through each layer's public functions, wrapping
// every call in a span, and prints the per-layer metrics instead.
//
// Usage:
//
//	reprobench [-workload w1,w2] [-seed n] [-seconds s] [-trace 0|1] [-repeats k] [-out run.json]
//	reprobench -compare base.json change.json
//
// Workloads:
//
//	report-paper    dse report at the paper budget (simulator-bound)
//	studies-models  pareto, depth, hetero and search on saved models (model-bound)
//	export-csv      dse report -csvdir on saved models (writer-bound)
//	serve-query     dsed under open-loop traffic at three fixed rates (read path)
//	serve-reload    dsed refreshing its model generation every 0.5 s beside live traffic (write path)
//
// Every input derives from -seed. The last line of standard output is a
// JSON summary: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "reprobench:", err)
		os.Exit(1)
	}
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// run performs the workload untraced and reports the end-to-end
	// metrics.
	run func(ctx context.Context, e *env) (*result, error)
	// traced repeats the workload with the benchmark's spans around each
	// layer call and reports the per-layer metrics; untraced is the
	// untraced run made just before, for trace_overhead_pct and for
	// output comparison.
	traced func(ctx context.Context, e *env, untraced *result) (*result, error)
}

var workloads = []workload{
	{"report-paper", runReportPaper, tracedReportPaper},
	{"studies-models", runStudiesModels, tracedStudiesModels},
	{"export-csv", runExportCSV, tracedExportCSV},
	{"serve-query", runServeQuery, tracedServeQuery},
	{"serve-reload", runServeReload, tracedServeReload},
}

// budget sizes the work. The paper budget is what BENCHMARK.json
// measures; the smoke budget keeps the end-to-end test fast.
type budget struct {
	// Report-paper training budget (dse flag defaults at paper scale).
	samples, validation, tracelen int
	// The model set the other workloads load, built in their set-up.
	// Its consumers run at the same trace length, so validation
	// simulations agree with the models.
	prepSamples, prepTracelen int
	// benches is the benchmark subset; nil is the full suite.
	benches []string
	// warmup is driven but not billed before each serve phase.
	warmup time.Duration
	// setups is how many set-ups each run measures.
	setups int
}

var (
	paperBudget = budget{
		samples: 1000, validation: 100, tracelen: 100000,
		prepSamples: 1000, prepTracelen: 10000,
		warmup: time.Second, setups: 3,
	}
	smokeBudget = budget{
		samples: 40, validation: 10, tracelen: 2000,
		prepSamples: 40, prepTracelen: 2000,
		benches: []string{"gzip", "mcf"},
		warmup:  200 * time.Millisecond, setups: 2,
	}
)

func (b budget) benchFlags() []string {
	if b.benches == nil {
		return nil
	}
	return []string{"-benchmarks", strings.Join(b.benches, ",")}
}

// suite is the benchmark list the workloads run over.
func (b budget) suite() []string {
	if b.benches == nil {
		return trace.Benchmarks()
	}
	return b.benches
}

// env is what every workload run shares.
type env struct {
	root    string // checkout holding cmd/dse and cmd/dsed
	bin     string // directory of the built binaries
	work    string // scratch directory of this invocation
	spans   string // directory the traced runs write span logs into
	seed    uint64
	seconds time.Duration
	b       budget
	smoke   bool
	golden  *outputs // nil when the seed has none or the budget is reduced
	models  string   // path of the model set
	// refs holds, per workload, the outputs every operation must match.
	refs map[string]outputs
}

func (e *env) dse() string  { return filepath.Join(e.bin, "dse") }
func (e *env) dsed() string { return filepath.Join(e.bin, "dsed") }

// modelFlags are the flags of every process that loads the model set.
func (e *env) modelFlags() []string {
	return append([]string{"-seed", fmt.Sprint(e.seed), "-tracelen", fmt.Sprint(e.b.prepTracelen), "-loadmodels", e.models}, e.b.benchFlags()...)
}

// reportFlags are report-paper's dse flags.
func (e *env) reportFlags() []string {
	return append([]string{"-seed", fmt.Sprint(e.seed),
		"-samples", fmt.Sprint(e.b.samples), "-validation", fmt.Sprint(e.b.validation),
		"-tracelen", fmt.Sprint(e.b.tracelen)}, e.b.benchFlags()...)
}

// options mirrors reportFlags, or with prep modelFlags, for an
// in-process Explorer.
func (e *env) options(prep bool) core.Options {
	o := core.DefaultOptions()
	o.Seed = e.seed
	o.Benchmarks = e.b.benches
	if prep {
		o.TrainSamples, o.TraceLen = e.b.prepSamples, e.b.prepTracelen
	} else {
		o.TrainSamples, o.ValidationSamples, o.TraceLen = e.b.samples, e.b.validation, e.b.tracelen
	}
	return o
}

// trainModels builds the model set at e.models and returns how long
// that took.
func (e *env) trainModels(ctx context.Context) (time.Duration, error) {
	args := append([]string{"-seed", fmt.Sprint(e.seed),
		"-samples", fmt.Sprint(e.b.prepSamples), "-tracelen", fmt.Sprint(e.b.prepTracelen)}, e.b.benchFlags()...)
	r := runProc(ctx, e.dse(), append(args, "-savemodels", e.models, "train")...)
	if r.Err != nil {
		return 0, fmt.Errorf("training the model set: %w", r.Err)
	}
	return r.Wall, nil
}

// setUp measures a workload's set-up e.b.setups times: building the
// model set, when the workload loads one, then starting its program
// until ready. Work moved into the model set shows here. The workload
// runs on the last model set built.
func (e *env) setUp(ctx context.Context, r *result, models bool, ready func() (time.Duration, error)) ([]time.Duration, error) {
	var times []time.Duration
	for i := 0; i < e.b.setups; i++ {
		var train time.Duration
		if models {
			r.attempted++
			var err error
			if train, err = e.trainModels(ctx); err != nil {
				return nil, err
			}
		}
		r.attempted++
		d, err := ready()
		if err != nil {
			r.fail("set-up: %v", err)
			continue
		}
		times = append(times, train+d)
	}
	return times, nil
}

// result is one workload run.
type result struct {
	attempted, failed int
	problems          []string
	metrics           map[string]float64
	// outputs is what the run produced, for the traced run and for
	// -update-golden.
	outputs outputs
}

func newResult() *result { return &result{metrics: map[string]float64{}} }

// fail records a failed operation.
func (r *result) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

// runOne runs a workload once, traced or not.
func runOne(ctx context.Context, e *env, w workload, traced bool) (*result, error) {
	res, err := w.run(ctx, e)
	if err != nil || !traced {
		return res, err
	}
	tr, err := w.traced(ctx, e, res)
	if err != nil {
		return nil, err
	}
	tr.attempted += res.attempted
	tr.failed += res.failed
	tr.problems = append(res.problems, tr.problems...)
	for _, m := range endToEnd {
		tr.metrics[m.Name] = res.metrics[m.Name]
	}
	return tr, nil
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("reprobench", flag.ContinueOnError)
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	list := fs.String("workload", strings.Join(names, ","), "comma-separated workloads to run")
	seed := fs.Uint64("seed", 2007, "workload seed; every input derives from it")
	seconds := fs.Float64("seconds", 15, "measured time per workload run")
	traceFlag := fs.Int("trace", 0, "1 runs each workload traced as well and reports per-layer metrics")
	repeats := fs.Int("repeats", 1, "runs per workload; the record holds each metric's median and quartiles")
	outPath := fs.String("out", "", "write the run record (JSON) to this file")
	compare := fs.Bool("compare", false, "compare two run records given as arguments: base.json change.json")
	smoke := fs.Bool("smoke", false, "reduced budget: 2 benchmarks, 40 samples, 2,000-instruction traces")
	updateGolden := fs.Bool("update-golden", false, "write the batch workloads' outputs as the golden file for -seed")
	root := fs.String("root", ".", "repository checkout to build and measure")
	if err := fs.Parse(args); err != nil {
		return err
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare needs two run records: base.json change.json")
		}
		return compareRecords(stdout, absRoot, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	var selected []workload
	for _, name := range strings.Split(*list, ",") {
		i := indexOf(names, strings.TrimSpace(name))
		if i < 0 {
			return fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
		}
		selected = append(selected, workloads[i])
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *traceFlag)
	}
	if *seconds <= 0 || *repeats < 1 {
		return errors.New("-seconds must be positive and -repeats at least 1")
	}
	if *updateGolden && *smoke {
		return errors.New("golden outputs are defined at the paper budget; drop -smoke")
	}
	if _, err := os.Stat(filepath.Join(absRoot, "cmd", "dse")); err != nil {
		return fmt.Errorf("%s is not a checkout of the repository: %w", absRoot, err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	buildDir := filepath.Join(absRoot, ".bench_build")
	e := &env{
		root:    absRoot,
		bin:     filepath.Join(buildDir, "bin"),
		spans:   filepath.Join(buildDir, "spans"),
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		b:       paperBudget,
		smoke:   *smoke,
		refs:    map[string]outputs{},
	}
	if *smoke {
		e.b = smokeBudget
	} else if e.golden, err = readGolden(absRoot, *seed); err != nil {
		return err
	}
	if *updateGolden {
		e.golden = nil
	}
	if err := buildBinaries(ctx, absRoot, e.bin); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(buildDir, "work"), 0o755); err != nil {
		return err
	}
	if e.work, err = os.MkdirTemp(filepath.Join(buildDir, "work"), "run-"); err != nil {
		return err
	}
	defer os.RemoveAll(e.work)
	e.models = filepath.Join(e.work, "models.json")

	rec := &record{
		NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), GitRev: obs.GitRevision(absRoot),
		Seed: *seed, Seconds: *seconds, Repeats: *repeats, Traced: *traceFlag == 1, Smoke: *smoke,
	}
	// A traced run also records the end-to-end metrics of the untraced
	// run it compares against; its summary line holds the per-layer ones.
	defs := endToEnd
	if rec.Traced {
		defs = append(append([]metricDef(nil), endToEnd...), perLayer...)
	}
	newGolden := &outputs{Digests: map[string]string{}}
	for _, w := range selected {
		var runs []*result
		for k := 0; k < *repeats; k++ {
			res, err := runOne(ctx, e, w, rec.Traced)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			runs = append(runs, res)
		}
		rec.Workloads = append(rec.Workloads, summarize(w.name, defs, runs))
		for k, v := range runs[0].outputs.Digests {
			newGolden.Digests[k] = v
		}
		if f := runs[0].outputs.Figure5a; f != "" {
			newGolden.Figure5a = f
		}
	}
	if *updateGolden {
		if err := writeGolden(absRoot, *seed, newGolden); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", goldenPath(absRoot, *seed))
	}
	rec.print(stdout)
	if *outPath != "" {
		data, err := json.MarshalIndent(rec, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return rec.printSummary(stdout)
}

func indexOf(list []string, s string) int {
	for i, v := range list {
		if v == s {
			return i
		}
	}
	return -1
}
