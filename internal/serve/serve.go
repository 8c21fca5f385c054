// Package serve is the evaluation-as-a-service layer: a long-running
// HTTP/JSON daemon over a trained core.Explorer. It is the piece that
// turns the engine's batching, singleflight cache and compiled sweep
// plans into network QPS — "train once, serve many cheap queries".
//
// Five endpoints are exposed: /v1/predict and /v1/simulate evaluate
// design points (model-predicted and detail-simulated respectively),
// /v1/sweep runs the cached exhaustive 262,500-point characterization,
// /v1/pareto extracts the delay-power frontier from it, and /v1/healthz
// reports liveness and the serving generation. docs/API.md documents the
// request/response schemas; a test executes its curl examples verbatim.
//
// The serving mechanics mirror the engine's design goals:
//
//   - One batch per request: a predict or simulate request is one
//     eval.EvaluateBatch call on the generation it resolved at entry,
//     issued at once under the request's own deadline. Nothing waits for
//     other requests; the engine's per-key singleflight still merges
//     identical points evaluated concurrently.
//   - Admission control: at most MaxInFlight requests are admitted;
//     excess load is shed immediately with 429 and a Retry-After header
//     rather than queued into latency collapse.
//   - Deadlines: every admitted request runs under RequestTimeout (the
//     serving analogue of core.Options.BatchTimeout, which the daemon
//     also arms on the engines); expiry maps to 504.
//   - Hot reload: models are swapped by loading a whole new generation
//     (Loader → *core.Explorer) and flipping one atomic pointer, so
//     in-flight requests finish on the generation that admitted them and
//     a failed reload (bad file, injected fault) keeps the old one.
//   - Graceful drain: Shutdown stops admitting (503), lets in-flight
//     requests finish, and only then returns.
//
// Every request runs inside an obs span with per-endpoint counters and
// latency histograms; the daemon folds them into its run manifest at
// exit. Fault sites serve.request and serve.reload let the resilience
// suite inject panics, errors and delays into the serving path.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// Loader builds one serving generation: a trained (or model-loaded)
// Explorer. New calls it once at startup and Reload calls it again for
// every hot swap; a Loader that fails leaves the previous generation
// serving. Loaders must return a fresh Explorer per call — generations
// are immutable once serving, which is what makes the swap safe under
// in-flight traffic.
type Loader func() (*core.Explorer, error)

// Options tunes the server. The zero value is usable; unset fields take
// the defaults below.
type Options struct {
	// MaxInFlight bounds admitted work requests (predict, simulate,
	// sweep, pareto; healthz is exempt). Excess requests are rejected
	// with 429 and a Retry-After header. 0 means DefaultMaxInFlight;
	// negative disables admission control.
	MaxInFlight int
	// RequestTimeout bounds each admitted request's evaluation wall
	// time; expiry returns 504. It is the serving analogue of
	// core.Options.BatchTimeout. 0 means no deadline.
	RequestTimeout time.Duration
	// MaxBodyBytes caps request body size; 0 means DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// PrewarmViews materializes the default sweep and pareto views for
	// every benchmark in the background whenever a generation is
	// (re)loaded, so the first client request is already a cache hit.
	// Off by default: prewarming runs a full exhaustive sweep per
	// benchmark at load time.
	PrewarmViews bool
}

// Defaults for Options fields left zero.
const (
	DefaultMaxInFlight  = 256
	DefaultMaxBodyBytes = 8 << 20
)

// generation is one immutable serving state: an Explorer plus identity.
// Requests resolve the current generation once at handler entry and use
// it to completion, so a reload mid-request never mixes models within
// one response.
type generation struct {
	e      *core.Explorer
	id     int64
	loaded time.Time

	// sweepMu/sweepFlight singleflight ExhaustivePredict per benchmark:
	// the Explorer caches completed sweeps but does not de-duplicate
	// concurrent first computations, and a cold /v1/sweep stampede would
	// run the 262,500-point kernel once per caller.
	sweepMu     sync.Mutex
	sweepFlight map[string]*sweepFlight

	// views is the materialized-view layer (views.go): per-benchmark
	// derived rankings/frontier columns and per-key response byte
	// caches. Owned by the generation, so a swap invalidates every view
	// atomically — a request that resolved the old generation keeps its
	// old views; new requests start from the new, empty cache.
	views *viewState
}

type sweepFlight struct {
	done  chan struct{}
	preds []core.Prediction
	err   error
}

// sweep returns the generation's exhaustive predictions for bench,
// computing them at most once however many requests race on a cold
// benchmark. Waiters honor their own context (a 504 waiter abandons the
// wait; the sweep itself runs to completion and stays cached).
func (g *generation) sweep(ctx context.Context, bench string) ([]core.Prediction, error) {
	g.sweepMu.Lock()
	f, ok := g.sweepFlight[bench]
	if !ok {
		f = &sweepFlight{done: make(chan struct{})}
		g.sweepFlight[bench] = f
		g.sweepMu.Unlock()
		f.preds, f.err = g.e.ExhaustivePredict(bench)
		if f.err != nil {
			// Drop the failed flight so a later request retries.
			g.sweepMu.Lock()
			if g.sweepFlight[bench] == f {
				delete(g.sweepFlight, bench)
			}
			g.sweepMu.Unlock()
		}
		close(f.done)
		return f.preds, f.err
	}
	g.sweepMu.Unlock()
	select {
	case <-f.done:
		return f.preds, f.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Stats is a point-in-time snapshot of the server's own counters
// (engine-level counters live in eval.EngineStats, reachable through
// Generation).
type Stats struct {
	// Requests counts admitted work requests (all endpoints but healthz).
	Requests int64
	// Rejected counts 429 admission-control rejections.
	Rejected int64
	// Timeouts counts requests that ended in 504.
	Timeouts int64
	// Errors counts non-timeout request failures (4xx input errors and
	// 5xx evaluation failures).
	Errors int64
	// Panics counts handler panics recovered into 500 responses.
	Panics int64
	// Reloads counts successful hot swaps; ReloadFailures counts reloads
	// that failed and left the previous generation serving.
	Reloads        int64
	ReloadFailures int64
	// Predicts counts admitted /v1/predict requests; each reaches the
	// model engine as at most one batch.
	Predicts int64
	// ViewHits counts sweep/pareto requests served entirely from a
	// materialized view (zero recomputation, zero re-encode, including
	// 304 conditional answers); ViewMisses counts requests that built or
	// waited on a view; ViewBuilds counts view materializations
	// (requests and prewarming both build).
	ViewHits   int64
	ViewMisses int64
	ViewBuilds int64
	// InFlight is the number of admitted requests running right now.
	InFlight int64
	// Generation is the id of the serving model generation (1-based).
	Generation int64
	// Draining reports whether Shutdown has begun.
	Draining bool
}

// Server is the HTTP evaluation service. Create with New, expose with
// Handler (or Serve for a managed net listener), hot swap with Reload,
// stop with Shutdown.
type Server struct {
	opts   Options
	loader Loader

	gen      atomic.Pointer[generation]
	genSeq   atomic.Int64
	reloadMu sync.Mutex // serializes Reload and StatsEpoch; requests never take it

	// retiredSim/retiredModel sum the engine counters of generations
	// swapped out since the last StatsEpoch (guarded by reloadMu).
	retiredSim, retiredModel eval.EngineStats

	start    time.Time
	inflight atomic.Int64
	draining atomic.Bool

	requests atomic.Int64
	predicts atomic.Int64
	rejected atomic.Int64
	timeouts atomic.Int64
	errs     atomic.Int64
	panics   atomic.Int64
	reloads  atomic.Int64
	reloadNG atomic.Int64

	// vstats aggregates materialized-view hit/miss/build counters
	// across generations (views.go).
	vstats *viewStats

	mux *http.ServeMux

	srvMu   sync.Mutex
	httpSrv *http.Server

	// Process-wide obs counters (shared registry: the daemon's manifest
	// absorbs them at exit). Resolved once at construction.
	reqCtr     *obs.Counter
	rejectCtr  *obs.Counter
	timeoutCtr *obs.Counter
	errCtr     *obs.Counter
	panicCtr   *obs.Counter
	reloadCtr  *obs.Counter
}

// New builds a server and loads the first model generation through the
// loader.
func New(loader Loader, opts Options) (*Server, error) {
	if opts.MaxInFlight == 0 {
		opts.MaxInFlight = DefaultMaxInFlight
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = DefaultMaxBodyBytes
	}
	s := &Server{
		opts:       opts,
		loader:     loader,
		start:      time.Now(),
		reqCtr:     obs.DefaultRegistry.Counter("serve.requests"),
		rejectCtr:  obs.DefaultRegistry.Counter("serve.rejected"),
		timeoutCtr: obs.DefaultRegistry.Counter("serve.timeouts"),
		errCtr:     obs.DefaultRegistry.Counter("serve.errors"),
		panicCtr:   obs.DefaultRegistry.Counter("serve.panics_recovered"),
		reloadCtr:  obs.DefaultRegistry.Counter("serve.reloads"),
		vstats:     newViewStats(),
	}
	if err := s.swapGeneration(); err != nil {
		return nil, fmt.Errorf("serve: loading initial models: %w", err)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("/v1/predict", s.endpoint("predict", s.handlePredict))
	s.mux.HandleFunc("/v1/simulate", s.endpoint("simulate", s.handleSimulate))
	s.mux.HandleFunc("/v1/sweep", s.endpoint("sweep", s.handleSweep))
	s.mux.HandleFunc("/v1/pareto", s.endpoint("pareto", s.handlePareto))
	s.mux.HandleFunc("/v1/reload", s.handleReload)
	return s, nil
}

// swapGeneration runs the loader and, on success, installs the result as
// the next serving generation. The previous generation keeps serving any
// requests that already resolved it; it is garbage once they finish
// (explorers hold no background goroutines). Its engine counters are
// folded into the retired totals StatsEpoch reports, so engine work is
// not lost with it. Callers hold reloadMu, or own s outright as New does.
func (s *Server) swapGeneration() error {
	if err := fault.Here("serve.reload"); err != nil {
		return err
	}
	e, err := s.loader()
	if err != nil {
		return err
	}
	if !e.Trained() {
		return errors.New("serve: loader returned an untrained explorer")
	}
	g := &generation{
		e:           e,
		id:          s.genSeq.Add(1),
		loaded:      time.Now(),
		sweepFlight: make(map[string]*sweepFlight),
		views:       newViewState(s.vstats),
	}
	if old := s.gen.Swap(g); old != nil {
		sim, model := old.e.StatsEpoch()
		s.retiredSim = sim.Add(s.retiredSim)
		s.retiredModel = model.Add(s.retiredModel)
	}
	if s.opts.PrewarmViews {
		go s.prewarm(g)
	}
	return nil
}

// StatsEpoch returns the simulation and model engine counters
// accumulated since the previous call (or since New), summed over every
// generation that served in between, and starts a new epoch. It is
// core.Explorer.StatsEpoch across reloads: a session with N reloads
// reports the work of all N+1 generations, not just the live one's.
// Gauges describe the live generation. Work an outgoing generation
// finishes after its swap is not counted.
func (s *Server) StatsEpoch() (sim, model eval.EngineStats) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	sim, model = s.generation().e.StatsEpoch()
	sim, model = sim.Add(s.retiredSim), model.Add(s.retiredModel)
	s.retiredSim, s.retiredModel = eval.EngineStats{}, eval.EngineStats{}
	return sim, model
}

// generation returns the current serving generation.
func (s *Server) generation() *generation { return s.gen.Load() }

// Generation exposes the serving explorer and its generation id —
// primarily for tests asserting on the engine counters.
func (s *Server) Generation() (*core.Explorer, int64) {
	g := s.generation()
	return g.e, g.id
}

// Reload hot swaps the models: it runs the loader and atomically installs
// the new generation without disturbing in-flight requests. On failure
// (loader error or an armed serve.reload fault) the previous generation
// keeps serving and the error is returned. Reloads are serialized;
// requests never block on one.
func (s *Server) Reload() (int64, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	if err := s.swapGeneration(); err != nil {
		s.reloadNG.Add(1)
		return s.generation().id, err
	}
	s.reloads.Add(1)
	s.reloadCtr.Add(1)
	return s.generation().id, nil
}

// Stats snapshots the server counters.
func (s *Server) Stats() Stats {
	return Stats{
		Requests:       s.requests.Load(),
		Rejected:       s.rejected.Load(),
		Timeouts:       s.timeouts.Load(),
		Errors:         s.errs.Load(),
		Panics:         s.panics.Load(),
		Reloads:        s.reloads.Load(),
		ReloadFailures: s.reloadNG.Load(),
		Predicts:       s.predicts.Load(),
		ViewHits:       s.vstats.hits.Load(),
		ViewMisses:     s.vstats.misses.Load(),
		ViewBuilds:     s.vstats.builds.Load(),
		InFlight:       s.inflight.Load(),
		Generation:     s.generation().id,
		Draining:       s.draining.Load(),
	}
}

// Handler returns the server's HTTP handler (all /v1/ routes).
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on ln until Shutdown. It returns nil after a
// clean Shutdown and the listener error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	srv := &http.Server{Handler: s.mux}
	s.srvMu.Lock()
	s.httpSrv = srv
	s.srvMu.Unlock()
	err := srv.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown drains the server gracefully: new work requests are refused
// with 503 immediately, in-flight requests run to completion, and
// Shutdown returns once the server is idle (or ctx expires, whichever is
// first). Safe to call without Serve (handler-only servers drain on the
// in-flight counter alone) and safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.srvMu.Lock()
	srv := s.httpSrv
	s.srvMu.Unlock()
	if srv != nil {
		return srv.Shutdown(ctx)
	}
	for s.inflight.Load() > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
	return nil
}

// errorBody is the uniform error envelope: every non-2xx response
// carries it. RetryAfterS mirrors the Retry-After header on 429/503.
type errorBody struct {
	Status      int    `json:"status"`
	Error       string `json:"error"`
	RetryAfterS int    `json:"retry_after_s,omitempty"`
}

// httpError carries a status code through handler returns.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// encBufPool recycles the encoder buffers behind every JSON response —
// one buffer per response instead of per-write allocations in the
// encoder, and a single Write (with Content-Length) to the socket.
var encBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// encodeJSON renders v exactly as writeJSON sends it: indented with one
// space and newline-terminated. The materialized-view layer caches these
// bytes, so cached and freshly-encoded responses are bit-identical by
// construction.
func encodeJSON(v any) ([]byte, error) {
	buf := encBufPool.Get().(*bytes.Buffer)
	defer func() {
		buf.Reset()
		encBufPool.Put(buf)
	}()
	enc := json.NewEncoder(buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return append([]byte(nil), buf.Bytes()...), nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := encBufPool.Get().(*bytes.Buffer)
	defer func() {
		buf.Reset()
		encBufPool.Put(buf)
	}()
	enc := json.NewEncoder(buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	w.Write(buf.Bytes()) //nolint:errcheck // client gone; nothing to do
}

func writeError(w http.ResponseWriter, status int, msg string, retryAfterS int) {
	if retryAfterS > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterS))
	}
	writeJSON(w, status, errorBody{Status: status, Error: msg, RetryAfterS: retryAfterS})
}

// retryAfterSeconds is the hint sent with 429/503: long enough for
// in-flight requests or a drain to make progress, short enough that
// clients retry promptly.
const retryAfterSeconds = 1

// endpoint wraps a work handler with the shared serving mechanics, in
// order: panic recovery, method check, the request deadline, the
// serve.request fault site (bounded by that deadline), drain refusal
// (503), admission control (429), and per-request observability (span,
// counters, latency histogram).
func (s *Server) endpoint(name string, h func(ctx context.Context, w http.ResponseWriter, r *http.Request) error) http.HandlerFunc {
	hist := obs.DefaultRegistry.Histogram("serve." + name)
	ctr := obs.DefaultRegistry.Counter("serve." + name + ".requests")
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.panics.Add(1)
				s.panicCtr.Add(1)
				s.errs.Add(1)
				s.errCtr.Add(1)
				writeError(w, http.StatusInternalServerError, fmt.Sprintf("panic: %v", rec), 0)
			}
		}()
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, "use POST", 0)
			return
		}
		// The request deadline is armed before the fault site so injected
		// delay and hang faults are bounded the way genuinely slow work
		// is: a hang unblocks at RequestTimeout (or on client disconnect,
		// which the server only detects once the body is consumed — too
		// late for a fault that fires before decoding), pinning a handler
		// goroutine for a bounded time instead of forever.
		ctx := r.Context()
		if s.opts.RequestTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.opts.RequestTimeout)
			defer cancel()
		}
		if err := fault.HereCtx(ctx, "serve.request"); err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				s.timeouts.Add(1)
				s.timeoutCtr.Add(1)
				writeError(w, http.StatusGatewayTimeout,
					fmt.Sprintf("deadline exceeded after %v", s.opts.RequestTimeout), 0)
				return
			}
			s.errs.Add(1)
			s.errCtr.Add(1)
			writeError(w, http.StatusInternalServerError, err.Error(), 0)
			return
		}
		if s.draining.Load() {
			writeError(w, http.StatusServiceUnavailable, "server is draining", retryAfterSeconds)
			return
		}
		if max := s.opts.MaxInFlight; max > 0 && s.inflight.Add(1) > int64(max) {
			s.inflight.Add(-1)
			s.rejected.Add(1)
			s.rejectCtr.Add(1)
			writeError(w, http.StatusTooManyRequests,
				fmt.Sprintf("at admission limit (%d in flight)", max), retryAfterSeconds)
			return
		} else if max <= 0 {
			s.inflight.Add(1)
		}
		defer s.inflight.Add(-1)
		s.requests.Add(1)
		s.reqCtr.Add(1)
		ctr.Add(1)

		ctx, sp := obs.Start(ctx, "serve."+name)
		start := time.Now()
		r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
		err := h(ctx, w, r)
		hist.Observe(time.Since(start))
		sp.End()
		if err == nil {
			return
		}
		var he *httpError
		switch {
		case errors.As(err, &he):
			s.errs.Add(1)
			s.errCtr.Add(1)
			writeError(w, he.status, he.msg, 0)
		case errors.Is(err, context.DeadlineExceeded):
			s.timeouts.Add(1)
			s.timeoutCtr.Add(1)
			writeError(w, http.StatusGatewayTimeout,
				fmt.Sprintf("deadline exceeded after %v", s.opts.RequestTimeout), 0)
		case errors.Is(err, context.Canceled):
			// Client went away; nothing useful to write.
			s.errs.Add(1)
			s.errCtr.Add(1)
		default:
			s.errs.Add(1)
			s.errCtr.Add(1)
			writeError(w, http.StatusInternalServerError, err.Error(), 0)
		}
	}
}

// PointRequest is the request body shared by /v1/predict and
// /v1/simulate: one benchmark and the design points to evaluate, given
// either as fully-resolved configurations or as flat indices into the
// 262,500-point study space (both may be combined; configs come first in
// the response order).
type PointRequest struct {
	Bench   string        `json:"bench"`
	Configs []arch.Config `json:"configs,omitempty"`
	Indices []int         `json:"indices,omitempty"`
}

// PointResult is one evaluated design point.
type PointResult struct {
	BIPS  float64 `json:"bips"`
	Watts float64 `json:"watts"`
	// BIPS3W is the paper's efficiency metric, 0 for unphysical
	// (non-positive) predictions.
	BIPS3W float64 `json:"bips3w"`
}

// PointResponse answers /v1/predict and /v1/simulate.
type PointResponse struct {
	Bench string `json:"bench"`
	// Generation identifies the model generation that validated and
	// answered the request.
	Generation int64         `json:"generation"`
	Results    []PointResult `json:"results"`
}

// decodePoints parses and validates a PointRequest against generation g,
// returning the engine requests in response order.
func (s *Server) decodePoints(g *generation, r *http.Request) (string, []eval.Request, error) {
	var req PointRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return "", nil, badRequest("decoding request body: %v", err)
	}
	if req.Bench == "" {
		return "", nil, badRequest("missing \"bench\"")
	}
	known := false
	for _, b := range g.e.Benchmarks() {
		if b == req.Bench {
			known = true
			break
		}
	}
	if !known {
		return "", nil, badRequest("unknown benchmark %q (serving: %v)", req.Bench, g.e.Benchmarks())
	}
	n := len(req.Configs) + len(req.Indices)
	if n == 0 {
		return "", nil, badRequest("empty request: provide \"configs\" and/or \"indices\"")
	}
	space := g.e.StudySpace
	reqs := make([]eval.Request, 0, n)
	for i, cfg := range req.Configs {
		if err := cfg.Validate(); err != nil {
			return "", nil, badRequest("configs[%d]: %v", i, err)
		}
		reqs = append(reqs, eval.Request{Config: cfg, Bench: req.Bench})
	}
	for i, idx := range req.Indices {
		if idx < 0 || idx >= space.Size() {
			return "", nil, badRequest("indices[%d] = %d outside study space [0, %d)", i, idx, space.Size())
		}
		reqs = append(reqs, eval.Request{Config: space.Config(space.PointAt(idx)), Bench: req.Bench})
	}
	return req.Bench, reqs, nil
}

func pointResults(results []eval.Result) []PointResult {
	out := make([]PointResult, len(results))
	for i, r := range results {
		out[i] = PointResult{BIPS: r.BIPS, Watts: r.Watts}
		if r.BIPS > 0 && r.Watts > 0 {
			out[i].BIPS3W = metrics.BIPS3W(r.BIPS, r.Watts)
		}
	}
	return out
}

// handlePoints resolves the serving generation once, validates the body
// against it and answers with one engine batch on it, run under the
// request's own context (which carries RequestTimeout). Validation, the
// answer and its generation label therefore always come from the same
// models, even when a reload lands mid-request.
func (s *Server) handlePoints(ctx context.Context, w http.ResponseWriter, r *http.Request,
	batch func(e *core.Explorer, ctx context.Context, reqs []eval.Request) ([]eval.Result, error)) error {
	g := s.generation()
	bench, reqs, err := s.decodePoints(g, r)
	if err != nil {
		return err
	}
	results, err := batch(g.e, ctx, reqs)
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, PointResponse{Bench: bench, Generation: g.id, Results: pointResults(results)})
	return nil
}

func (s *Server) handlePredict(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	s.predicts.Add(1)
	return s.handlePoints(ctx, w, r, (*core.Explorer).PredictBatch)
}

func (s *Server) handleSimulate(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	return s.handlePoints(ctx, w, r, (*core.Explorer).SimulateBatch)
}

// SweepRequest asks for the exhaustive model characterization of one
// benchmark. Top bounds the number of best-efficiency designs returned
// (default 10, max 1000).
type SweepRequest struct {
	Bench string `json:"bench"`
	Top   int    `json:"top,omitempty"`
}

// SweepDesign is one ranked design from a sweep.
type SweepDesign struct {
	Index  int         `json:"index"`
	Config arch.Config `json:"config"`
	BIPS   float64     `json:"bips"`
	Watts  float64     `json:"watts"`
	BIPS3W float64     `json:"bips3w"`
}

// SweepResponse answers /v1/sweep: the space size actually swept and the
// top designs by bips³/w. Sweeps are computed once per (generation,
// benchmark) and served from cache afterwards.
type SweepResponse struct {
	Bench      string        `json:"bench"`
	Generation int64         `json:"generation"`
	Points     int           `json:"points"`
	Best       []SweepDesign `json:"best"`
}

// Defaults and bounds for the view-shaping request parameters. The
// defaults double as the keys prewarming materializes.
const (
	defaultSweepTop      = 10
	defaultParetoTargets = 40
	maxParetoTargets     = 10000
)

func (s *Server) handleSweep(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	var req SweepRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return badRequest("decoding request body: %v", err)
	}
	if req.Top <= 0 {
		req.Top = defaultSweepTop
	}
	if req.Top > MaxSweepTop {
		req.Top = MaxSweepTop
	}
	g := s.generation()
	if err := validBench(g, req.Bench); err != nil {
		return err
	}
	key := viewKey{kind: "sweep", bench: req.Bench, param: req.Top}
	return s.serveMaterialized(ctx, w, r, g, key, func(ctx context.Context) (any, error) {
		return g.buildSweepResponse(ctx, req.Bench, req.Top)
	})
}

// serveMaterialized resolves (building on first use) the materialized
// view for key and writes it, maintaining the hit/miss counters. This is
// the whole hot path of /v1/sweep and /v1/pareto: on a hit the handler
// touches no prediction data at all — it writes cached bytes (or just an
// ETag, for a 304).
func (s *Server) serveMaterialized(ctx context.Context, w http.ResponseWriter, r *http.Request, g *generation, key viewKey, build func(ctx context.Context) (any, error)) error {
	v, hit, err := g.view(ctx, key, build)
	if hit {
		s.vstats.hits.Add(1)
		s.vstats.hitCtr.Add(1)
	} else {
		s.vstats.misses.Add(1)
		s.vstats.missCtr.Add(1)
	}
	if err != nil {
		return err
	}
	serveView(w, r, v)
	return nil
}

// validBench rejects requests for benchmarks the generation is not
// serving.
func validBench(g *generation, bench string) error {
	if bench == "" {
		return badRequest("missing \"bench\"")
	}
	for _, b := range g.e.Benchmarks() {
		if b == bench {
			return nil
		}
	}
	return badRequest("unknown benchmark %q (serving: %v)", bench, g.e.Benchmarks())
}

// ParetoRequest asks for the delay-power pareto frontier of one
// benchmark, discretized into Targets delay bins (default 40, the
// paper's Section 4.2 construction).
type ParetoRequest struct {
	Bench   string `json:"bench"`
	Targets int    `json:"targets,omitempty"`
}

// ParetoDesign is one frontier point.
type ParetoDesign struct {
	Index  int         `json:"index"`
	Config arch.Config `json:"config"`
	// DelayS is predicted execution time in seconds for the nominal
	// 100M-instruction workload; Watts the predicted power.
	DelayS float64 `json:"delay_s"`
	Watts  float64 `json:"watts"`
}

// ParetoResponse answers /v1/pareto.
type ParetoResponse struct {
	Bench      string         `json:"bench"`
	Generation int64          `json:"generation"`
	Targets    int            `json:"targets"`
	Frontier   []ParetoDesign `json:"frontier"`
}

func (s *Server) handlePareto(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	var req ParetoRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return badRequest("decoding request body: %v", err)
	}
	if req.Targets <= 0 {
		req.Targets = defaultParetoTargets
	}
	if req.Targets > maxParetoTargets {
		return badRequest("targets = %d too large (max %d)", req.Targets, maxParetoTargets)
	}
	g := s.generation()
	if err := validBench(g, req.Bench); err != nil {
		return err
	}
	key := viewKey{kind: "pareto", bench: req.Bench, param: req.Targets}
	return s.serveMaterialized(ctx, w, r, g, key, func(ctx context.Context) (any, error) {
		return g.buildParetoResponse(ctx, req.Bench, req.Targets)
	})
}

// HealthzResponse answers /v1/healthz: liveness, the serving generation
// and a compact load summary. Returned with status 200 while serving and
// 503 while draining (load balancers read the status code).
type HealthzResponse struct {
	Status        string   `json:"status"` // "ok" or "draining"
	Generation    int64    `json:"generation"`
	ModelLoadedAt string   `json:"model_loaded_at"` // RFC 3339
	UptimeS       float64  `json:"uptime_s"`
	Benchmarks    []string `json:"benchmarks"`
	SpaceSize     int      `json:"space_size"`
	Workers       int      `json:"workers"`
	InFlight      int64    `json:"in_flight"`
	Requests      int64    `json:"requests"`
	// View-cache counters (views.go): the load driver reads deltas of
	// these around its measurement windows to report cache hit rates.
	ViewHits   int64 `json:"view_hits"`
	ViewMisses int64 `json:"view_misses"`
	ViewBuilds int64 `json:"view_builds"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET", 0)
		return
	}
	g := s.generation()
	status, code := "ok", http.StatusOK
	if s.draining.Load() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	writeJSON(w, code, HealthzResponse{
		Status:        status,
		Generation:    g.id,
		ModelLoadedAt: g.loaded.UTC().Format(time.RFC3339),
		UptimeS:       time.Since(s.start).Seconds(),
		Benchmarks:    g.e.Benchmarks(),
		SpaceSize:     g.e.StudySpace.Size(),
		Workers:       g.e.Options().Workers,
		InFlight:      s.inflight.Load(),
		Requests:      s.requests.Load(),
		ViewHits:      s.vstats.hits.Load(),
		ViewMisses:    s.vstats.misses.Load(),
		ViewBuilds:    s.vstats.builds.Load(),
	})
}

// ReloadResponse answers /v1/reload.
type ReloadResponse struct {
	Generation int64 `json:"generation"`
}

// handleReload is the HTTP face of Reload (SIGHUP is the other). It is
// not subject to admission control — operators must be able to reload a
// saturated server — but it is refused while draining.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST", 0)
		return
	}
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining", retryAfterSeconds)
		return
	}
	sp := obs.Begin("serve.reload")
	gen, err := s.Reload()
	sp.End()
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Sprintf("reload failed (still serving generation %d): %v", gen, err), 0)
		return
	}
	writeJSON(w, http.StatusOK, ReloadResponse{Generation: gen})
}
