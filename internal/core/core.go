// Package core implements the paper's end-to-end methodology: sample the
// design space uniformly at random, simulate only the samples, fit
// per-benchmark performance and power regression models, validate them on
// held-out random designs, and expose cheap exhaustive prediction over
// the exploration space for the three design-space studies.
//
// Every (configuration, benchmark) → (bips, watts) query — simulated or
// model-predicted — is served by eval.Engine: a batched, cancellable
// evaluation layer shared by training, validation, the exhaustive
// sweep, the studies and heuristic search. A failed evaluation fails
// its batch; a checkpointed dataset build recovers with Resume.
package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/eval"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/regression"
	"repro/internal/trace"
)

// Options configures an Explorer. The zero value is not valid; use
// DefaultOptions as a starting point.
type Options struct {
	// TrainSamples is the number of designs sampled uniformly at random
	// from the sampling space and simulated for model formulation. The
	// paper uses 1,000.
	TrainSamples int
	// ValidationSamples is the number of held-out random designs used to
	// measure predictive error (paper: 100).
	ValidationSamples int
	// TraceLen is the synthetic trace length per benchmark. Longer
	// traces exercise larger working sets; 100,000 instructions is the
	// default operating point for this repository.
	TraceLen int
	// Seed makes sampling deterministic.
	Seed uint64
	// Benchmarks to model; nil means the full nine-program suite.
	Benchmarks []string
	// Workers bounds evaluation parallelism (simulation batches and the
	// exhaustive model sweep); 0 means GOMAXPROCS.
	Workers int
	// Spec selects the regression specification; nil means PaperSpec,
	// the paper's splines + interactions + transformed responses.
	Spec SpecBuilder
	// SweepTile is the contiguous flat-index tile size handed to each
	// sweep worker; 0 means DefaultSweepTile. Output is independent of
	// the tile size; it only shapes load balance and handout contention.
	SweepTile int
	// CheckpointDir, when non-empty, enables crash-safe checkpointing:
	// dataset building writes a checksummed checkpoint every
	// CheckpointEvery samples per benchmark via atomic
	// temp-file+rename writes.
	CheckpointDir string
	// CheckpointEvery is the number of training samples simulated between
	// checkpoint writes; 0 means DefaultCheckpointEvery. Only meaningful
	// with CheckpointDir set.
	CheckpointEvery int
	// Resume loads matching checkpoints from CheckpointDir before
	// computing: completed dataset chunks are not re-simulated. A
	// checkpoint whose identity (seed, sample counts, trace length,
	// benchmarks) does not match this run is refused with
	// ckpt.ErrIdentity rather than silently mixed in. Results are
	// bit-identical to an uninterrupted run.
	Resume bool
	// BatchTimeout bounds the wall time of each evaluation batch and
	// sweep on both engines; 0 means no deadline.
	BatchTimeout time.Duration
	// GuardInterval overrides the fast-path guardrail sampling interval
	// for both backends (one in N fast results is recomputed on the
	// reference path and compared bit-exactly). 0 keeps the backend
	// defaults; negative disables the guardrails.
	GuardInterval int64
}

// DefaultOptions returns the paper's experimental configuration.
func DefaultOptions() Options {
	return Options{
		TrainSamples:      1000,
		ValidationSamples: 100,
		TraceLen:          100000,
		Seed:              2007, // the paper's publication year
	}
}

// Response column names in training datasets.
const (
	ColBIPS  = "bips"
	ColWatts = "watts"
)

// DefaultSweepTile is the sweep tile size when Options.SweepTile is 0:
// it divides the study space's 37,500-point depth blocks evenly (70
// tiles across the 262,500-point space), so no tile straddles a depth
// boundary and depth-sliced studies see the same tiling as full sweeps.
const DefaultSweepTile = 3750

// Explorer ties the design space, the simulator and the regression models
// together.
type Explorer struct {
	opts Options

	// sweepPool recycles the sweep kernel's output buffers across sweep
	// tiles and sweeps.
	sweepPool sync.Pool

	// SampleSpace is the 375,000-point Table 1 space used for training;
	// StudySpace is the 262,500-point exploration subspace.
	SampleSpace *arch.Space
	StudySpace  *arch.Space

	benchmarks []string

	// simEngine serves detailed simulations. Every request runs the
	// simulator: the method simulates each sampled design once, so a
	// result cache would almost never hit.
	simEngine *eval.Engine
	// modelEngine serves regression predictions, one backend call per
	// request; whole sweeps are cached separately in sweepCache.
	modelEngine *eval.Engine
	// modelsBackend is the engine's regression backend, kept so trained
	// state changes can invalidate its per-batch resolution memo.
	modelsBackend *eval.Models

	mu         sync.Mutex
	sweepCache map[string][]Prediction
	trainData  map[string]*regression.Dataset
	// plans holds each benchmark's compiled model pair, rebuilt whenever
	// the models behind it change: a benchmark has a plan exactly when it
	// has models.
	plans map[string]*eval.PairPlan

	perf map[string]*regression.Model
	pow  map[string]*regression.Model
}

// New creates an Explorer. Call Train before predicting.
func New(opts Options) (*Explorer, error) {
	if opts.TrainSamples <= 0 {
		return nil, fmt.Errorf("core: TrainSamples must be positive")
	}
	if opts.TraceLen <= 0 {
		return nil, fmt.Errorf("core: TraceLen must be positive")
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.Spec == nil {
		opts.Spec = PaperSpec
	}
	benches := opts.Benchmarks
	if benches == nil {
		benches = trace.Benchmarks()
	}
	for _, b := range benches {
		if _, ok := trace.ProfileFor(b); !ok {
			return nil, fmt.Errorf("core: unknown benchmark %q", b)
		}
	}
	e := &Explorer{
		opts:        opts,
		SampleSpace: arch.TableOneSpace(),
		StudySpace:  arch.ExplorationSpace(),
		benchmarks:  benches,
		sweepCache:  make(map[string][]Prediction),
		trainData:   make(map[string]*regression.Dataset),
		plans:       make(map[string]*eval.PairPlan),
		perf:        make(map[string]*regression.Model),
		pow:         make(map[string]*regression.Model),
	}
	simBackend := eval.NewSimulator(opts.TraceLen)
	if opts.GuardInterval != 0 {
		simBackend.SetGuardInterval(opts.GuardInterval)
	}
	e.simEngine = eval.NewEngine(
		simBackend,
		eval.Options{Workers: opts.Workers, Name: "sim", BatchTimeout: opts.BatchTimeout},
	)
	e.modelsBackend = eval.NewModels(e.Models)
	e.modelsBackend.LookupCompiled = e.pairPlan
	if opts.GuardInterval != 0 {
		e.modelsBackend.SetGuardInterval(opts.GuardInterval)
	}
	tile := opts.SweepTile
	if tile == 0 {
		tile = DefaultSweepTile
	}
	e.modelEngine = eval.NewEngine(
		e.modelsBackend,
		eval.Options{Workers: opts.Workers, Name: "model", BatchTimeout: opts.BatchTimeout, Tile: tile},
	)
	return e, nil
}

// Benchmarks returns the modeled benchmark names.
func (e *Explorer) Benchmarks() []string {
	return append([]string(nil), e.benchmarks...)
}

// Options returns the explorer's configuration.
func (e *Explorer) Options() Options { return e.opts }

// SimStats returns the simulation engine's counters: detailed
// simulations run, recovered panics, in-flight work.
func (e *Explorer) SimStats() eval.EngineStats { return e.simEngine.Stats() }

// ModelStats returns the model engine's counters.
func (e *Explorer) ModelStats() eval.EngineStats { return e.modelEngine.Stats() }

// StatsEpoch returns both engines' counter deltas since the previous
// epoch and advances the baselines. Sequential phases in one process
// (train, then validate, then each study) call this between phases so
// per-phase accounting does not double-count earlier work.
func (e *Explorer) StatsEpoch() (sim, model eval.EngineStats) {
	return e.simEngine.StatsEpoch(), e.modelEngine.StatsEpoch()
}

// Simulate runs the detailed simulator for one configuration and
// benchmark, returning bips and watts. Each call runs the simulator;
// the result is a deterministic function of its arguments.
func (e *Explorer) Simulate(cfg arch.Config, bench string) (bips, watts float64, err error) {
	r, err := e.simEngine.Evaluate(context.Background(), eval.Request{Config: cfg, Bench: bench})
	if err != nil {
		return 0, 0, err
	}
	return r.BIPS, r.Watts, nil
}

// SimulateBatch runs the detailed simulator for every request with
// bounded parallelism, returning results in request order. The first
// simulation error cancels outstanding work and is returned promptly.
func (e *Explorer) SimulateBatch(ctx context.Context, reqs []eval.Request) ([]eval.Result, error) {
	return e.simEngine.EvaluateBatch(ctx, reqs)
}

// Train samples the design space, simulates every sample on every
// benchmark, and fits the performance and power models.
func (e *Explorer) Train() error { return e.TrainContext(context.Background()) }

// TrainContext is Train under a caller-controlled context: cancellation
// stops the simulation batches between evaluations, and — with
// checkpointing enabled — a killed run resumes from its last checkpoint
// with bit-identical datasets and model fits.
func (e *Explorer) TrainContext(ctx context.Context) error {
	ctx, sp := obs.Start(ctx, "core.train",
		obs.Int("samples", int64(e.opts.TrainSamples)),
		obs.Int("benchmarks", int64(len(e.benchmarks))))
	defer sp.End()
	configs := e.trainingConfigs()
	for _, bench := range e.benchmarks {
		ds, err := e.buildDataset(ctx, configs, bench)
		if err != nil {
			return err
		}
		perfModel, err := regression.Fit(e.opts.Spec(ColBIPS, regression.Sqrt), ds)
		if err != nil {
			return fmt.Errorf("core: fitting performance model for %s: %w", bench, err)
		}
		powModel, err := regression.Fit(e.opts.Spec(ColWatts, regression.Log), ds)
		if err != nil {
			return fmt.Errorf("core: fitting power model for %s: %w", bench, err)
		}
		plan, err := eval.CompilePair(perfModel, powModel, e.StudySpace)
		if err != nil {
			return fmt.Errorf("core: compiling models for %s: %w", bench, err)
		}
		e.mu.Lock()
		e.perf[bench] = perfModel
		e.pow[bench] = powModel
		e.plans[bench] = plan
		e.trainData[bench] = ds
		e.mu.Unlock()
	}
	e.modelsBackend.Reset()
	return nil
}

// BuildDataset simulates the training sample on every benchmark into
// the per-benchmark checkpoint files, exactly as TrainContext does, but
// fits no models. A later Train with Resume loads the files and fits
// without simulating. Requires CheckpointDir: the checkpoints are the
// output.
func (e *Explorer) BuildDataset(ctx context.Context) error {
	if e.opts.CheckpointDir == "" {
		return fmt.Errorf("core: BuildDataset requires CheckpointDir (its output is the checkpoint files)")
	}
	configs := e.trainingConfigs()
	for _, bench := range e.benchmarks {
		if _, err := e.buildDataset(ctx, configs, bench); err != nil {
			return err
		}
	}
	return nil
}

// trainingConfigs draws the training sample from the run seed.
func (e *Explorer) trainingConfigs() []arch.Config {
	points := e.SampleSpace.SampleUAR(e.opts.TrainSamples, e.opts.Seed)
	configs := make([]arch.Config, len(points))
	for i, p := range points {
		configs[i] = e.SampleSpace.Config(p)
	}
	return configs
}

// pairPlan returns a benchmark's compiled model pair, or nil when the
// benchmark has no models.
func (e *Explorer) pairPlan(bench string) *eval.PairPlan {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.plans[bench]
}

// buildDataset simulates the configurations for one benchmark and
// assembles the regression dataset (predictors + responses). With
// checkpointing enabled the simulations run in CheckpointEvery-sample
// chunks, each followed by an atomic checksummed checkpoint write; on
// resume, completed chunks load from the checkpoint instead of
// re-simulating. Per-(config, benchmark) results are deterministic and
// independent of batch composition, so a resumed dataset is
// bit-identical to an uninterrupted one.
func (e *Explorer) buildDataset(ctx context.Context, configs []arch.Config, bench string) (*regression.Dataset, error) {
	n := len(configs)
	ctx, sp := obs.Start(ctx, "core.dataset", obs.String("bench", bench))
	defer sp.End()
	bipsCol := make([]float64, n)
	wattsCol := make([]float64, n)

	completed := 0
	ckptPath := ""
	if e.opts.CheckpointDir != "" {
		ckptPath = e.trainCheckpointPath(bench)
		if e.opts.Resume {
			c, err := e.loadDatasetCheckpoint(ckptPath, n)
			if err != nil {
				return nil, err
			}
			if c != nil {
				copy(bipsCol, c.BIPS)
				copy(wattsCol, c.Watts)
				completed = c.Completed
			}
		}
	}
	chunk := n
	if ckptPath != "" {
		chunk = e.opts.CheckpointEvery
		if chunk <= 0 {
			chunk = DefaultCheckpointEvery
		}
	}
	for lo := completed; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		results, err := e.SimulateBatch(ctx, eval.RequestsFor(configs[lo:hi], bench))
		if err != nil {
			return nil, err
		}
		for i, r := range results {
			bipsCol[lo+i] = r.BIPS
			wattsCol[lo+i] = r.Watts
		}
		if ckptPath != "" {
			if err := e.saveDatasetCheckpoint(ckptPath, hi, bipsCol, wattsCol); err != nil {
				return nil, err
			}
		}
	}

	names := arch.PredictorNames()
	cols := make([][]float64, len(names))
	for i := range cols {
		cols[i] = make([]float64, n)
	}
	for i, cfg := range configs {
		vals := arch.Predictors(cfg)
		for c := range names {
			cols[c][i] = vals[c]
		}
	}
	ds := regression.NewDataset(n)
	for c, name := range names {
		ds.AddColumn(name, cols[c])
	}
	ds.AddColumn(ColBIPS, bipsCol)
	ds.AddColumn(ColWatts, wattsCol)
	return ds, nil
}

// Trained reports whether models exist for all benchmarks.
func (e *Explorer) Trained() bool {
	for _, b := range e.benchmarks {
		if e.perf[b] == nil || e.pow[b] == nil {
			return false
		}
	}
	return len(e.benchmarks) > 0
}

// Models returns the fitted performance and power models for a benchmark.
func (e *Explorer) Models(bench string) (perf, pow *regression.Model, err error) {
	perf, pow = e.perf[bench], e.pow[bench]
	if perf == nil || pow == nil {
		return nil, nil, fmt.Errorf("core: no trained models for %q (call Train)", bench)
	}
	return perf, pow, nil
}

// Predict evaluates the regression models for one configuration,
// returning predicted bips and watts.
func (e *Explorer) Predict(cfg arch.Config, bench string) (bips, watts float64, err error) {
	r, err := e.modelEngine.Evaluate(context.Background(), eval.Request{Config: cfg, Bench: bench})
	if err != nil {
		return 0, 0, err
	}
	return r.BIPS, r.Watts, nil
}

// PredictBatch evaluates the regression models for every request with
// bounded parallelism, returning results in request order.
func (e *Explorer) PredictBatch(ctx context.Context, reqs []eval.Request) ([]eval.Result, error) {
	return e.modelEngine.EvaluateBatch(ctx, reqs)
}

// Prediction holds exhaustive model output for one design point.
type Prediction struct {
	Index int // flat index into the study space
	BIPS  float64
	Watts float64
}

// ExhaustivePredict evaluates the models over the entire study space for
// one benchmark: the paper's "comprehensive design space characterization"
// (more than 260,000 predictions in seconds rather than simulator-years).
// The sweep runs as chunked parallel batches on the model engine and is
// cached per benchmark; the returned slice is shared, so callers must
// not mutate it.
func (e *Explorer) ExhaustivePredict(bench string) ([]Prediction, error) {
	if _, _, err := e.Models(bench); err != nil {
		return nil, err
	}
	e.mu.Lock()
	if cached, ok := e.sweepCache[bench]; ok {
		e.mu.Unlock()
		return cached, nil
	}
	e.mu.Unlock()
	out := make([]Prediction, e.StudySpace.Size())
	if err := e.ExhaustivePredictInto(context.Background(), bench, out); err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.sweepCache[bench] = out
	e.mu.Unlock()
	return out, nil
}

// sweepChunk is the number of design points evaluated per kernel call:
// a whole number of the study space's 25-point DL1×L2 planes, large
// enough to amortize the guardrail tick, small enough that both output
// slices stay far inside L1.
const sweepChunk = 500

// sweepScratch is one worker's reusable kernel output buffers, pooled
// so tiles allocate nothing in steady state.
type sweepScratch struct {
	bips, watts [sweepChunk]float64
}

// ExhaustivePredictInto runs the exhaustive sweep for one benchmark into
// dst (which must have StudySpace.Size() elements), bypassing the sweep
// cache. Results are deterministic and independent of the worker count
// and kernel: dst[i] always holds the prediction for flat index i.
//
// The engine hands each worker contiguous flat-index tiles sized to
// divide the space's depth blocks, and each tile is evaluated
// sweepChunk points at a time by eval.PairPlan.SweepRange, which walks
// the level odometer itself: partial sums of the leading axes' columns
// are hoisted out of the per-point loop, and both models are evaluated
// over whole DL1×L2 planes from coefficient-premultiplied plane tables.
// The output is bit-identical to the interpreted models, which the
// guardrail checks and which re-run the sweep if the guardrail trips.
func (e *Explorer) ExhaustivePredictInto(ctx context.Context, bench string, dst []Prediction) error {
	if _, _, err := e.Models(bench); err != nil {
		return err
	}
	n := e.StudySpace.Size()
	if len(dst) != n {
		return fmt.Errorf("core: sweep buffer has %d slots, space has %d", len(dst), n)
	}
	ctx, sp := obs.Start(ctx, "core.sweep", obs.String("bench", bench))
	defer sp.End()
	guard := e.modelsBackend.Guard()
	if !guard.Degraded() {
		if err := e.sweepBlocked(ctx, bench, e.pairPlan(bench), guard, dst); err != nil {
			return err
		}
		if !guard.Degraded() {
			return nil
		}
		// The guardrail tripped mid-sweep: some plan result diverged
		// from the interpreted reference, and the corruption could have
		// landed anywhere in the space. Fall through and re-run the whole
		// sweep on the interpreted models, guaranteeing correct output.
	}
	return e.modelEngine.Sweep(ctx, n, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			bips, watts, err := e.interpretedPredict(bench, i)
			if err != nil {
				return err
			}
			dst[i] = Prediction{Index: i, BIPS: bips, Watts: watts}
		}
		return nil
	})
}

// sweepBlocked is the sweep kernel: tiles of the flat index range, each
// walked chunk-by-chunk — evaluate both models' SweepPlans over
// sweepChunk consecutive flat indices, store into dst. The guardrail
// counts every point (TickCount per chunk) and cross-checks one
// evenly-spaced representative per crossed boundary against the
// interpreted models, so guard coverage matches the configured
// one-in-interval rate however tiles and chunks divide the space.
func (e *Explorer) sweepBlocked(ctx context.Context, bench string, plan *eval.PairPlan, guard *eval.Guardrail, dst []Prediction) error {
	return e.modelEngine.Sweep(ctx, len(dst), func(lo, hi int) error {
		// Hoisted per tile so the per-point loop stays free of atomic
		// traffic when no fault plan is armed (the common case).
		faultActive := fault.Active()
		s, _ := e.sweepPool.Get().(*sweepScratch)
		if s == nil {
			s = new(sweepScratch)
		}
		defer e.sweepPool.Put(s)
		for base := lo; base < hi; base += sweepChunk {
			k := min(hi-base, sweepChunk)
			plan.SweepRange(base, s.bips[:k], s.watts[:k])
			if faultActive {
				for i := 0; i < k; i++ {
					s.bips[i] = fault.Flip("core.sweep.compiled", s.bips[i])
					s.watts[i] = fault.Flip("core.sweep.compiled", s.watts[i])
				}
			}
			for i := 0; i < k; i++ {
				dst[base+i] = Prediction{Index: base + i, BIPS: s.bips[i], Watts: s.watts[i]}
			}
			if checks := guard.TickCount(int64(k)); checks > 0 {
				step := k / int(checks)
				for c := int64(0); c < checks; c++ {
					idx := base + int(c)*step
					refB, refW, err := e.interpretedPredict(bench, idx)
					if err != nil {
						return err
					}
					guard.Record(dst[idx].BIPS != refB || dst[idx].Watts != refW)
				}
			}
		}
		return nil
	})
}

// interpretedPredict evaluates the interpreted regression models for
// one flat study-space index — the sweep kernel's reference path.
func (e *Explorer) interpretedPredict(bench string, index int) (bips, watts float64, err error) {
	perf, pow, err := e.Models(bench)
	if err != nil {
		return 0, 0, err
	}
	bips, watts = eval.PredictInterpreted(perf, pow, e.StudySpace.Config(e.StudySpace.PointAt(index)))
	return bips, watts, nil
}

// BestEfficiency scans predictions for the bips^3/w-maximizing design,
// skipping non-positive (unphysical) predictions. It returns the flat
// index and efficiency of the best design, or (-1, -Inf) when no
// prediction is valid. Both the pareto and heterogeneity studies rank
// designs this way.
func BestEfficiency(preds []Prediction) (index int, eff float64) {
	index, eff = -1, math.Inf(-1)
	for _, p := range preds {
		if p.BIPS <= 0 || p.Watts <= 0 {
			continue
		}
		if v := metrics.BIPS3W(p.BIPS, p.Watts); v > eff {
			eff, index = v, p.Index
		}
	}
	return index, eff
}
