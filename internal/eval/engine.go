package eval

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// ErrClosed is returned by batch evaluation after Close.
var ErrClosed = errors.New("eval: engine closed")

// Options configures an Engine. The zero value is usable: all cores,
// no batch deadline.
type Options struct {
	// Workers bounds batch parallelism; 0 means GOMAXPROCS.
	Workers int
	// Name labels the engine in spans, latency histograms and progress
	// lines ("sim", "model", ...); empty means "engine". Purely
	// observational — it never affects results.
	Name string
	// BatchTimeout bounds the wall time of each EvaluateBatch and Sweep
	// call; 0 means no deadline. On expiry the batch cancels its workers
	// and returns context.DeadlineExceeded.
	BatchTimeout time.Duration
	// Tile is the number of points handed to a worker per Sweep claim.
	// 0 sizes tiles automatically (enough tiles to load-balance, large
	// enough to amortize per-tile kernel setup). Callers whose index
	// space has natural contiguous blocks (the study space's depth
	// blocks) pass a tile that divides the block size, so no tile
	// straddles a block boundary.
	Tile int
}

// EngineStats is a point-in-time snapshot of an engine's counters.
type EngineStats struct {
	// Evaluations counts backend Evaluate calls that actually ran.
	Evaluations int64
	// CacheHits is always zero: the engine has no result cache, and
	// every request runs its backend. It is kept only because the
	// benchmark harness (bench/cmd/reprobench/inproc.go) still reads
	// it; delete it with that read. Sub and Add leave it alone.
	CacheHits int64
	// CacheMisses is always zero, for the same reason as CacheHits;
	// Evaluations counts the backend runs.
	CacheMisses int64
	// SweptPoints counts design points evaluated through Sweep, the
	// one-shot batch mode (they are not counted in Evaluations).
	SweptPoints int64
	// BatchCalls counts EvaluateBatch invocations (not the requests
	// inside them). The serving layer issues one batch per predict or
	// simulate request.
	BatchCalls int64
	// WarmHits counts simulator runs that replayed a memoized cache/BHT
	// outcome mask; zero for backends without an outcome memo.
	WarmHits int64
	// WarmMisses counts simulator runs that composed their geometry's
	// outcome mask (every first run of a geometry, and every run of one
	// the memo budget cannot hold); zero for backends without an
	// outcome memo.
	WarmMisses int64
	// OutcomeWalks counts the component passes the simulator walked a
	// trace for, to compose those masks from: one per trace, IL1 size
	// and DL1 geometry while the memo budget holds them; zero for
	// backends without an outcome memo.
	OutcomeWalks int64
	// PanicsRecovered counts backend panics converted into typed
	// TaskErrors by per-worker recovery.
	PanicsRecovered int64
	// GuardChecks counts fast-path results cross-checked against the
	// reference path by the backend's guardrail; zero for unguarded
	// backends.
	GuardChecks int64
	// GuardDivergences counts cross-checks that caught a fast-path
	// result differing from the reference — silent corruption that
	// tripped the guardrail.
	GuardDivergences int64
	// Degraded reports whether the backend's guardrail has tripped and
	// evaluations are being routed down the safe reference path. A
	// gauge, not a counter.
	Degraded bool
	// InFlight is the number of backend evaluations running right now.
	InFlight int64
	// Workers is the engine's configured batch parallelism.
	Workers int
}

// Sub returns the counter deltas s minus base. Gauges (Degraded,
// InFlight, Workers) are carried from s as-is, not differenced: they
// describe the present, not an interval. StatsEpoch is built on Sub;
// external consumers holding their own baseline snapshot (e.g. a
// serving layer attributing engine work to a traffic window) can use
// it directly.
func (s EngineStats) Sub(base EngineStats) EngineStats {
	d := s
	d.Evaluations -= base.Evaluations
	d.SweptPoints -= base.SweptPoints
	d.BatchCalls -= base.BatchCalls
	d.WarmHits -= base.WarmHits
	d.WarmMisses -= base.WarmMisses
	d.OutcomeWalks -= base.OutcomeWalks
	d.PanicsRecovered -= base.PanicsRecovered
	d.GuardChecks -= base.GuardChecks
	d.GuardDivergences -= base.GuardDivergences
	return d
}

// Add is the inverse of Sub: it returns the counter sums s plus o, with
// gauges carried from s. A serving layer that retires engines on reload
// adds each outgoing engine's final epoch to a running total.
func (s EngineStats) Add(o EngineStats) EngineStats {
	d := s
	d.Evaluations += o.Evaluations
	d.SweptPoints += o.SweptPoints
	d.BatchCalls += o.BatchCalls
	d.WarmHits += o.WarmHits
	d.WarmMisses += o.WarmMisses
	d.OutcomeWalks += o.OutcomeWalks
	d.PanicsRecovered += o.PanicsRecovered
	d.GuardChecks += o.GuardChecks
	d.GuardDivergences += o.GuardDivergences
	return d
}

// ManifestStats flattens a simulator engine's and a model engine's
// counter deltas into the phase-stats layout of the dse and dsed run
// manifests: sim_* and model_* keys, zero counters dropped, nil when
// every counter is zero.
func ManifestStats(sim, model EngineStats) map[string]int64 {
	m := make(map[string]int64)
	sim.flatten("sim_", m)
	model.flatten("model_", m)
	if len(m) == 0 {
		return nil
	}
	return m
}

func (s EngineStats) flatten(prefix string, m map[string]int64) {
	set := func(k string, v int64) {
		if v != 0 {
			m[prefix+k] = v
		}
	}
	set("evaluations", s.Evaluations)
	set("batches", s.BatchCalls)
	set("swept_points", s.SweptPoints)
	set("warm_hits", s.WarmHits)
	set("warm_misses", s.WarmMisses)
	set("outcome_walks", s.OutcomeWalks)
	set("panics_recovered", s.PanicsRecovered)
	set("guard_checks", s.GuardChecks)
	set("guard_divergences", s.GuardDivergences)
	if s.Degraded {
		set("degraded", 1)
	}
}

// Engine is a concurrent evaluation service over one backend. It
// provides bounded-parallelism batch evaluation with deterministic
// result ordering and context cancellation, panic recovery into typed
// errors, and lifetime counters. It keeps no results: every request
// runs the backend, because the paper's method simulates each sampled
// design once and lets the models answer everything else.
//
// Batch calls spawn at most Workers goroutines for their own duration
// and always join them before returning, so an Engine holds no
// background goroutines: dropping one leaks nothing, and Close only
// fences further use.
type Engine struct {
	ev      Evaluator
	workers int
	name    string
	timeout time.Duration
	tile    int
	closed  atomic.Bool

	evals    atomic.Int64
	swept    atomic.Int64
	batches  atomic.Int64
	inflight atomic.Int64
	panics   atomic.Int64

	// epochMu guards the StatsEpoch baseline; see StatsEpoch.
	epochMu   sync.Mutex
	epochBase EngineStats

	// Cached observability instruments (resolved once at construction so
	// hot paths never touch the registry map). Histograms record only
	// while obs.Enabled(), so the default path costs one atomic load.
	invokeHist *obs.Histogram
	tileHist   *obs.Histogram
	// Span and progress names, built once so batch calls do not
	// allocate them.
	batchName, sweepName, tileName string
}

// NewEngine creates an engine over the backend.
func NewEngine(ev Evaluator, opts Options) *Engine {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	name := opts.Name
	if name == "" {
		name = "engine"
	}
	return &Engine{
		ev:         ev,
		workers:    workers,
		name:       name,
		timeout:    opts.BatchTimeout,
		tile:       opts.Tile,
		invokeHist: obs.DefaultRegistry.Histogram("eval." + name + ".invoke"),
		tileHist:   obs.DefaultRegistry.Histogram("eval." + name + ".tile"),
		batchName:  "eval." + name + ".batch",
		sweepName:  "eval." + name + ".sweep",
		tileName:   "eval." + name + ".tile",
	}
}

// warmStatser is probed on the backend so engines over the simulator
// surface its outcome-memo counters without the engine depending on
// the sim package.
type warmStatser interface {
	WarmStats() (hits, misses int64)
	OutcomeWalks() int64
}

// guardStatser is probed on the backend so engines over guarded
// backends (compiled models, the fast-path simulator) surface their
// guardrail counters.
type guardStatser interface {
	GuardStats() (checks, divergences int64, degraded bool)
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() EngineStats {
	s := EngineStats{
		Evaluations:     e.evals.Load(),
		SweptPoints:     e.swept.Load(),
		BatchCalls:      e.batches.Load(),
		PanicsRecovered: e.panics.Load(),
		InFlight:        e.inflight.Load(),
		Workers:         e.workers,
	}
	if ws, ok := e.ev.(warmStatser); ok {
		s.WarmHits, s.WarmMisses = ws.WarmStats()
		s.OutcomeWalks = ws.OutcomeWalks()
	}
	if gs, ok := e.ev.(guardStatser); ok {
		s.GuardChecks, s.GuardDivergences, s.Degraded = gs.GuardStats()
	}
	return s
}

// StatsEpoch returns the counters accumulated since the previous
// StatsEpoch call (or since construction, for the first call) and
// starts a new epoch. Gauges (InFlight, Workers) are reported as-is,
// not differenced. Sequential studies in one process use epochs to
// attribute evaluations to the phase that ran them — a plain Stats
// snapshot taken per phase would double-count everything before it.
// Stats itself is unaffected and still reports lifetime totals.
func (e *Engine) StatsEpoch() EngineStats {
	e.epochMu.Lock()
	defer e.epochMu.Unlock()
	cur := e.Stats()
	d := cur.Sub(e.epochBase)
	e.epochBase = cur
	return d
}

// Close marks the engine closed; subsequent batch calls fail with
// ErrClosed. It does not interrupt batches already in flight (cancel
// their contexts for that) and is safe to call more than once. Engines
// hold no background goroutines, so Close is a fence, not a teardown.
func (e *Engine) Close() { e.closed.Store(true) }

// invoke runs the backend exactly once, maintaining the counters.
// A backend panic is recovered into a *PanicError instead of crashing
// the worker, and every failure leaves as a typed *TaskError carrying
// the request, so the batch fails with the design point that broke it
// and no result slot is corrupted. There is no retry: both backends are
// deterministic, so a retried failure fails the same way again, and a
// checkpointed run recovers by resuming.
func (e *Engine) invoke(ctx context.Context, req Request) (res Result, err error) {
	e.inflight.Add(1)
	defer e.inflight.Add(-1)
	defer func() {
		if r := recover(); r != nil {
			e.panics.Add(1)
			panicsRecoveredCtr.Add(1)
			err = &TaskError{Req: req, Panicked: true, Err: &PanicError{Value: r}}
		}
	}()
	if ferr := fault.HereCtx(ctx, "eval.invoke"); ferr != nil {
		e.evals.Add(1)
		return Result{}, &TaskError{Req: req, Err: ferr}
	}
	bips, watts, err := e.ev.Evaluate(req.Config, req.Bench)
	e.evals.Add(1)
	if err != nil {
		return Result{}, &TaskError{Req: req, Err: err}
	}
	return Result{BIPS: bips, Watts: watts}, nil
}

// invokeTraced is invoke plus per-evaluation observability: a span
// (parented to the batch span carried in ctx) and a latency histogram
// sample. With tracing off it is exactly invoke after one atomic load.
func (e *Engine) invokeTraced(ctx context.Context, req Request) (Result, error) {
	if !obs.Enabled() {
		return e.invoke(ctx, req)
	}
	_, sp := obs.Start(ctx, "eval."+e.name+".invoke", obs.String("bench", req.Bench))
	start := time.Now()
	res, err := e.invoke(ctx, req)
	e.invokeHist.Observe(time.Since(start))
	sp.End()
	return res, err
}

// Evaluate serves one request on the caller's goroutine with no worker
// dispatch, so single-point queries (interactive prediction) stay cheap
// and Evaluate remains safe to call from inside another evaluation.
// Every call runs the backend.
func (e *Engine) Evaluate(ctx context.Context, req Request) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	return e.invokeTraced(ctx, req)
}

// SweepFunc evaluates the half-open index tile [lo, hi) of a sweep,
// writing results directly into caller-owned storage. Implementations
// must be safe for concurrent calls on disjoint tiles.
type SweepFunc func(lo, hi int) error

// admit fences a batch call on a closed engine or a context that is
// already done, before any counter moves.
func (e *Engine) admit(ctx context.Context) error {
	if e.closed.Load() {
		return ErrClosed
	}
	return ctx.Err()
}

// fanOut is the engine's one worker loop, behind both EvaluateBatch and
// Sweep. It splits the index range [0, n) into contiguous chunks of at
// most chunk indices, claimed from a single atomic cursor by up to
// Workers goroutines, so fast workers take more of the range and no two
// workers ever share a chunk. BatchTimeout bounds the call, and with
// tracing on a span named name parents the work. fn receives the
// call's cancellable context (carrying that span) and the span itself,
// nil when tracing is off. The first error fn returns cancels the
// remaining chunks and is returned; workers observe cancellation
// between chunks, and all of them are joined before fanOut returns.
// done counts the indices of completed chunks, also when the call
// failed or was cancelled partway.
func (e *Engine) fanOut(ctx context.Context, name string, n, chunk int, fn func(ctx context.Context, span *obs.Span, lo, hi int) error) (done int64, err error) {
	if e.timeout > 0 {
		var cancelTimeout context.CancelFunc
		ctx, cancelTimeout = context.WithTimeout(ctx, e.timeout)
		defer cancelTimeout()
	}
	// One enablement check per call: chunks within a call are either all
	// traced or all bare, and the default path costs a single atomic load.
	var span *obs.Span
	if obs.Enabled() {
		ctx, span = obs.Start(ctx, name,
			obs.Int("n", int64(n)), obs.Int("workers", int64(e.workers)))
		defer span.End()
	}
	bctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var firstErr error
	var errOnce sync.Once
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	var cursor, completed atomic.Int64
	stopProgress := obs.StartProgress(name, int64(n), completed.Load)
	defer stopProgress()

	workers := min((n+chunk-1)/chunk, e.workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for bctx.Err() == nil {
				lo := int(cursor.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				hi := min(lo+chunk, n)
				if err := fn(bctx, span, lo, hi); err != nil {
					fail(err)
					return
				}
				// One atomic add per chunk, amortized over the chunk.
				completed.Add(int64(hi - lo))
			}
		}()
	}
	wg.Wait()

	if firstErr == nil {
		firstErr = ctx.Err()
	}
	return completed.Load(), firstErr
}

// Sweep partitions the index range [0, n) into contiguous tiles and
// invokes fn across the engine's workers — the batch mode for one-shot
// exhaustive sweeps. Unlike EvaluateBatch it never goes through
// Evaluate: no request or result slices are materialized; the kernel
// enumerates its tile in flat order and writes wherever it pleases.
//
// Tiles are fixed-size contiguous index blocks (Options.Tile, or an
// automatic size) handed out by fanOut. The first error cancels the
// sweep and is returned; a tile in progress runs to completion.
// SweptPoints counts completed tiles, also when the sweep failed or was
// cancelled partway.
func (e *Engine) Sweep(ctx context.Context, n int, fn SweepFunc) error {
	if n <= 0 {
		return nil
	}
	if err := e.admit(ctx); err != nil {
		return err
	}
	tile := e.tile
	if tile <= 0 {
		// Tiles large enough to amortize per-tile setup (the kernel's
		// scratch buffers), small enough to load-balance across workers.
		tile = max(n/(e.workers*8), 64)
	}
	done, err := e.fanOut(ctx, e.sweepName, n, tile, func(_ context.Context, span *obs.Span, lo, hi int) error {
		if span == nil {
			return fn(lo, hi)
		}
		// Tile spans hang off the sweep span directly (Span.Child) rather
		// than re-deriving the parent from the context: context machinery
		// per tile was a measurable slice of the sweep's observability
		// overhead.
		tileSpan := span.Child(e.tileName, obs.Int("lo", int64(lo)), obs.Int("hi", int64(hi)))
		err := fn(lo, hi)
		tileSpan.EndObserve(e.tileHist)
		return err
	})
	e.swept.Add(done)
	return err
}

// EvaluateBatch evaluates all requests with bounded parallelism and
// returns results in request order regardless of worker count or
// completion order. Workers claim contiguous index chunks: cheap
// evaluations (model predictions) amortize the synchronization over the
// chunk, while expensive ones (simulations) get chunk sizes small enough
// to load-balance. The first evaluation error cancels outstanding work
// and is returned promptly with nil results; on cancellation every
// worker goroutine exits before EvaluateBatch returns (evaluations
// already inside the backend run to completion — the simulator is not
// interruptible mid-trace).
func (e *Engine) EvaluateBatch(ctx context.Context, reqs []Request) ([]Result, error) {
	n := len(reqs)
	if n == 0 {
		return nil, nil
	}
	if err := e.admit(ctx); err != nil {
		return nil, err
	}
	e.batches.Add(1)
	out := make([]Result, n)
	chunk := min(max(n/(e.workers*32), 1), 512)
	_, err := e.fanOut(ctx, e.batchName, n, chunk, func(ctx context.Context, _ *obs.Span, lo, hi int) error {
		for i := lo; i < hi; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			res, err := e.invokeTraced(ctx, reqs[i])
			if err != nil {
				return err
			}
			out[i] = res
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
