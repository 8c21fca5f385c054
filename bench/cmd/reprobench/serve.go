package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/serve"
)

// The fixed open-loop arrival rates of serve-query, in requests per
// second. high sits just under what two connections sustain within the
// latency limit on a 2-CPU host; serve-reload's live traffic runs at low.
var serveRates = []struct {
	name string
	rps  float64
}{{"low", 150}, {"mid", 350}, {"high", 550}}

// Service limits max_rate_rps holds a rate to: p99 latency, share of
// failed requests, and p99 generator lag (a growing backlog).
const (
	latencyLimit  = 10 * time.Millisecond
	maxErrorShare = 0.001
	lagLimit      = 5 * time.Millisecond
)

// checkEvery is how often a predict or simulate answer is kept for the
// bit-exact re-check against the models in process.
const checkEvery = 50

// simulatePool is how many distinct designs per benchmark simulate
// requests draw from, so the daemon's simulation memo sees revisits.
const simulatePool = 32

// connections is the open-loop generator's connection cap: one per CPU,
// at most two, so the client never outnumbers the cores it shares with
// the daemon.
func connections() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// mixer draws serve requests: 60% predict of one uniform design (no
// cache helps), 10% predict of a 64-design hill-climbing neighbourhood,
// 10% simulate from a small pool (memo hits), 10% sweep top 5 and 10%
// pareto with 40 targets (materialized views). Benchmarks are uniform.
type mixer struct {
	space   *arch.Space
	benches []string
	pools   map[string][]int
}

func newMixer(seed uint64, benches []string) *mixer {
	m := &mixer{space: arch.ExplorationSpace(), benches: benches, pools: map[string][]int{}}
	r := rng.NewFromString(fmt.Sprintf("simulate-pool/%d", seed))
	for _, b := range benches {
		for i := 0; i < simulatePool; i++ {
			m.pools[b] = append(m.pools[b], r.Intn(m.space.Size()))
		}
	}
	return m
}

// phase draws one open-loop phase: Poisson arrivals at rps over warmup
// plus measured time, the warmup share unbilled. label tells phases
// apart in the seed stream.
func (m *mixer) phase(seed uint64, label string, rps float64, warmup, measured time.Duration) []call {
	r := rng.NewFromString(fmt.Sprintf("phase/%s/%d", label, seed))
	dues := poissonDues(r, rps, warmup+measured)
	calls := make([]call, len(dues))
	for i, d := range dues {
		calls[i] = m.draw(r)
		calls[i].Due, calls[i].Billed = d, d >= warmup
	}
	return calls
}

func (m *mixer) draw(r *rng.Source) call {
	bench := m.benches[r.Intn(len(m.benches))]
	switch u := r.Float64(); {
	case u < 0.6:
		return pointCall("predict1", bench, []int{r.Intn(m.space.Size())})
	case u < 0.7:
		return pointCall("predict64", bench, m.neighbourhood(r, 64))
	case u < 0.8:
		return pointCall("simulate", bench, []int{m.pools[bench][r.Intn(simulatePool)]})
	case u < 0.9:
		return viewCall("sweep", bench)
	default:
		return viewCall("pareto", bench)
	}
}

// pointCall is a predict or simulate request for the designs at idx.
func pointCall(route, bench string, idx []int) call {
	path := "/v1/predict"
	if route == "simulate" {
		path = "/v1/simulate"
	}
	body, _ := json.Marshal(serve.PointRequest{Bench: bench, Indices: idx}) // plain struct: cannot fail
	return call{Route: route, Method: http.MethodPost, Path: path, Body: body, Bench: bench, Indices: idx}
}

// viewCall is a sweep (top 5) or pareto (40 targets) request.
func viewCall(route, bench string) call {
	var req any = serve.SweepRequest{Bench: bench, Top: 5}
	if route == "pareto" {
		req = serve.ParetoRequest{Bench: bench, Targets: 40}
	}
	body, _ := json.Marshal(req) // plain struct: cannot fail
	return call{Route: route, Method: http.MethodPost, Path: "/v1/" + route, Body: body, Bench: bench}
}

// neighbourhood returns n designs the way search.HillClimbBatch scores
// them: every single-axis move from a point, then a step to one of those
// neighbours, until n designs are collected.
func (m *mixer) neighbourhood(r *rng.Source, n int) []int {
	levels := m.space.Levels()
	var cur arch.Point
	for a := range cur {
		cur[a] = r.Intn(levels[a])
	}
	out := make([]int, 0, n)
	for len(out) < n {
		var nbs []arch.Point
		for a := 0; a < arch.NumAxes; a++ {
			for _, d := range [2]int{-1, 1} {
				nb := cur
				nb[a] += d
				if nb[a] >= 0 && nb[a] < levels[a] {
					nbs = append(nbs, nb)
				}
			}
		}
		for _, nb := range nbs {
			if len(out) < n {
				out = append(out, m.space.FlatIndex(nb))
			}
		}
		cur = nbs[r.Intn(len(nbs))]
	}
	return out
}

// refreshEvery is how often serve-reload refreshes the generation.
const refreshEvery = 500 * time.Millisecond

// refreshOp is one generation refresh: POST /v1/reload, then the sweep
// and pareto views of every benchmark, one after another, as a client
// that follows each model push by re-reading every view. The reload
// drops every view, so each view request builds one.
type refreshOp struct {
	start  time.Duration // due time, from phase start
	billed bool
	calls  []call
	outs   []outcome
}

// latency runs from the refresh's due time to its last answer.
func (op refreshOp) latency() time.Duration { return op.outs[len(op.outs)-1].Done - op.start }

// refreshLoop starts a refresh every refreshEvery from phase start
// until end, on its own connection; one that falls behind starts the
// next at once. Refreshes due after warmup are billed.
func refreshLoop(ctx context.Context, baseURL string, benches []string, start time.Time, warmup, end time.Duration) []refreshOp {
	client := newClient(1)
	defer client.CloseIdleConnections()
	var ops []refreshOp
	for due := time.Duration(0); due < end && ctx.Err() == nil; due += refreshEvery {
		if wait := due - time.Since(start); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
			}
		}
		op := refreshOp{start: due, billed: due >= warmup}
		op.calls = append(op.calls, call{Route: "reload", Method: http.MethodPost, Path: "/v1/reload"})
		for _, b := range benches {
			op.calls = append(op.calls, viewCall("sweep", b), viewCall("pareto", b))
		}
		for i := range op.calls {
			op.calls[i].Due, op.calls[i].Billed = time.Since(start), op.billed
			op.outs = append(op.outs, send(ctx, client, baseURL, op.calls[i], start))
		}
		ops = append(ops, op)
	}
	return ops
}

// servePhase is one open-loop phase and what came back. With refresh
// set, a second connection repeats generation refreshes meanwhile and
// the open-loop traffic keeps one connection.
type servePhase struct {
	name    string
	rps     float64
	calls   []call
	refresh bool
	outs    []outcome
	ops     []refreshOp
	start   time.Time
	wall    time.Duration
}

// daemon is one running dsed process.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	ready  time.Duration // exec until the first 200 from /v1/healthz
	stderr *urlWatch
	exited chan struct{}
	err    error
}

// urlWatch collects dsed's standard error and picks out the address it
// reports once listening.
type urlWatch struct {
	mu  sync.Mutex
	buf bytes.Buffer
	url chan string
}

var servingLine = regexp.MustCompile(`on (http://[^/\s]+)/`)

func (w *urlWatch) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	had := servingLine.Match(w.buf.Bytes())
	w.buf.Write(p)
	if m := servingLine.FindSubmatch(w.buf.Bytes()); !had && m != nil {
		w.url <- string(m[1])
	}
	return len(p), nil
}

func (w *urlWatch) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// startDaemon starts dsed and waits until /v1/healthz answers 200.
func startDaemon(ctx context.Context, bin string, args ...string) (*daemon, error) {
	d := &daemon{stderr: &urlWatch{url: make(chan string, 1)}, exited: make(chan struct{})}
	d.cmd = exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	d.cmd.Stderr = d.stderr
	resetPeakRSS()
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.exited)
	}()
	timeout := time.After(60 * time.Second)
	select {
	case d.url = <-d.stderr.url:
	case <-d.exited:
		return nil, fmt.Errorf("dsed exited during start-up: %v: %s", d.err, lastLine([]byte(d.stderr.String())))
	case <-timeout:
		d.kill()
		return nil, fmt.Errorf("dsed did not start listening within 60s")
	case <-ctx.Done():
		d.kill()
		return nil, ctx.Err()
	}
	client := &http.Client{Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()
	for {
		resp, err := client.Get(d.url + "/v1/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained for keep-alive; the status is what counts
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.ready = time.Since(start)
				return d, nil
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("dsed exited before healthy: %v", d.err)
		case <-timeout:
			d.kill()
			return nil, fmt.Errorf("dsed not healthy within 60s")
		case <-ctx.Done():
			d.kill()
			return nil, ctx.Err()
		case <-time.After(200 * time.Microsecond):
		}
	}
}

// stop drains dsed with SIGTERM and waits for it to exit.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		d.kill()
		return fmt.Errorf("dsed did not drain within 30s")
	}
	if d.err != nil {
		return fmt.Errorf("dsed: %v: %s", d.err, lastLine([]byte(d.stderr.String())))
	}
	return nil
}

// kill ends the process and waits for it; a no-op once it has exited.
func (d *daemon) kill() {
	select {
	case <-d.exited:
	default:
		_ = d.cmd.Process.Kill() // the wait below observes the exit either way
		<-d.exited
	}
}

// serveRun is what a serve workload run learned beyond its result: the
// daemon's resources and, when traced, its manifest.
type serveRun struct {
	setups   []time.Duration
	cpu      time.Duration
	maxRSSKB int64
	manifest *obs.Manifest
	// kept are the predict and simulate answers re-checked in process.
	kept []keptAnswer
}

type keptAnswer struct {
	c    call
	resp serve.PointResponse
}

// runServe runs a serve workload: the set-ups, then one daemon through
// every phase, then the in-process re-check. An operation is one
// request, or one refresh when a phase refreshes generations.
func (e *env) runServe(ctx context.Context, phases []*servePhase, traced bool) (*result, *serveRun, error) {
	r, sr := newResult(), &serveRun{}
	args := e.modelFlags()
	var err error
	sr.setups, err = e.setUp(ctx, r, true, func() (time.Duration, error) {
		d, err := startDaemon(ctx, e.dsed(), args...)
		if err != nil {
			return 0, err
		}
		return d.ready, d.stop()
	})
	if err != nil {
		return nil, nil, err
	}
	manifest := filepath.Join(e.work, "dsed-manifest.json")
	if traced {
		args = append(args, "-manifest", manifest)
	}
	r.attempted++
	d, err := startDaemon(ctx, e.dsed(), args...)
	if err != nil {
		return nil, nil, err
	}
	defer d.kill()

	v := newVerifier()
	for _, ph := range phases {
		conns := connections()
		var wg sync.WaitGroup
		ph.start = time.Now()
		if ph.refresh {
			conns = 1
			wg.Add(1)
			go func() {
				defer wg.Done()
				ph.ops = refreshLoop(ctx, d.url, e.b.suite(), ph.start, e.b.warmup, e.b.warmup+e.seconds)
			}()
		}
		client := newClient(conns)
		ph.outs = openLoop(ctx, client, d.url, ph.calls, conns)
		client.CloseIdleConnections()
		wg.Wait()
		ph.wall = time.Since(ph.start)
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		for i, c := range ph.calls {
			r.attempted++
			if err := v.verify(c, ph.outs[i], sr); err != nil {
				r.fail("%s %s: %v", ph.name, c.Route, err)
			}
		}
		for _, op := range ph.ops {
			for i, c := range op.calls {
				r.attempted++
				if err := v.verify(c, op.outs[i], sr); err != nil {
					r.fail("refresh %s: %v", c.Route, err)
				}
			}
		}
	}
	if err := d.stop(); err != nil {
		r.fail("%v", err)
	}
	if ps := d.cmd.ProcessState; ps != nil {
		sr.cpu = ps.UserTime() + ps.SystemTime()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			sr.maxRSSKB = int64(ru.Maxrss)
		}
	}
	if traced {
		if sr.manifest, err = obs.ReadManifest(manifest); err != nil {
			return nil, nil, fmt.Errorf("reading dsed's manifest: %w", err)
		}
	}
	ex, err := e.loadExplorer()
	if err != nil {
		return nil, nil, err
	}
	for _, p := range recheck(ctx, ex, sr.kept) {
		r.fail("re-check: %s", p)
	}

	var lat []float64
	ops := 0
	for _, ph := range phases {
		if ph.refresh {
			ops += len(ph.ops)
			for _, op := range ph.ops {
				if op.billed {
					lat = append(lat, ms(op.latency()))
				}
			}
			continue
		}
		ops += len(ph.calls)
		for i, c := range ph.calls {
			if o := ph.outs[i]; c.Billed && o.ok() {
				lat = append(lat, ms(o.latency(c)))
			}
		}
	}
	if len(lat) == 0 || ops == 0 {
		return nil, nil, fmt.Errorf("no operation completed in the measured time")
	}
	r.metrics["latency_p50_ms"] = quantile(lat, 0.5)
	r.metrics["latency_mean_ms"] = mean(lat)
	r.metrics["cpu_ms_per_op"] = ms(sr.cpu) / float64(ops)
	r.metrics["peak_rss_mb"] = float64(sr.maxRSSKB) / 1024
	r.metrics["setup_s"] = medianDuration(sr.setups).Seconds()
	return r, sr, nil
}

// loadExplorer loads the model set in process, with the options the
// daemon serves it under.
func (e *env) loadExplorer() (*core.Explorer, error) {
	ex, err := core.New(e.options(true))
	if err != nil {
		return nil, err
	}
	f, err := os.Open(e.models)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ex, ex.LoadModels(f)
}

// verifier checks every answer: status, shape, and that every view
// answer for one (route, benchmark, generation) is the same bytes.
type verifier struct {
	views   map[string]string
	seen    map[string]int
	lastGen int64
}

func newVerifier() *verifier {
	return &verifier{views: map[string]string{}, seen: map[string]int{}}
}

func (v *verifier) verify(c call, o outcome, sr *serveRun) error {
	if o.Err != nil {
		return o.Err
	}
	if !o.ok() {
		return fmt.Errorf("status %d: %s", o.Status, lastLine(o.Body))
	}
	switch c.Route {
	case "predict1", "predict64", "simulate":
		var resp serve.PointResponse
		if err := json.Unmarshal(o.Body, &resp); err != nil {
			return err
		}
		if resp.Bench != c.Bench || len(resp.Results) != len(c.Indices) || resp.Generation < 1 {
			return fmt.Errorf("answer for %s with %d results, want %s with %d", resp.Bench, len(resp.Results), c.Bench, len(c.Indices))
		}
		for _, p := range resp.Results {
			if !(p.BIPS > 0 && p.Watts > 0) || math.IsInf(p.BIPS+p.Watts, 0) {
				return fmt.Errorf("unphysical result %+v", p)
			}
		}
		if v.seen[c.Path]%checkEvery == 0 {
			sr.kept = append(sr.kept, keptAnswer{c, resp})
		}
		v.seen[c.Path]++
	case "sweep", "pareto":
		var head struct {
			Bench      string          `json:"bench"`
			Generation int64           `json:"generation"`
			Best       json.RawMessage `json:"best"`
			Frontier   json.RawMessage `json:"frontier"`
		}
		if err := json.Unmarshal(o.Body, &head); err != nil {
			return err
		}
		if head.Bench != c.Bench || len(head.Best)+len(head.Frontier) < 3 {
			return fmt.Errorf("empty %s answer for %s", c.Route, c.Bench)
		}
		key := fmt.Sprintf("%s/%s/%d", c.Route, c.Bench, head.Generation)
		d := digest(o.Body)
		if want, ok := v.views[key]; ok && want != d {
			return fmt.Errorf("%s answer changed within one generation", key)
		}
		v.views[key] = d
	case "reload":
		var resp serve.ReloadResponse
		if err := json.Unmarshal(o.Body, &resp); err != nil {
			return err
		}
		if resp.Generation <= v.lastGen {
			return fmt.Errorf("reload to generation %d after %d", resp.Generation, v.lastGen)
		}
		v.lastGen = resp.Generation
	}
	return nil
}

// recheck evaluates every kept answer in process on the same model file
// and reports each one that is not bit-identical.
func recheck(ctx context.Context, ex *core.Explorer, kept []keptAnswer) []string {
	var problems []string
	space := ex.StudySpace
	for _, k := range kept {
		reqs := make([]eval.Request, len(k.c.Indices))
		for i, idx := range k.c.Indices {
			reqs[i] = eval.Request{Config: space.Config(space.PointAt(idx)), Bench: k.c.Bench}
		}
		evaluate := ex.PredictBatch
		if k.c.Route == "simulate" {
			evaluate = ex.SimulateBatch
		}
		want, err := evaluate(ctx, reqs)
		if err != nil {
			problems = append(problems, err.Error())
			continue
		}
		for i, w := range want {
			got := k.resp.Results[i]
			if math.Float64bits(got.BIPS) != math.Float64bits(w.BIPS) || math.Float64bits(got.Watts) != math.Float64bits(w.Watts) {
				problems = append(problems, fmt.Sprintf("%s %s index %d: served (%v, %v), in process (%v, %v)",
					k.c.Route, k.c.Bench, k.c.Indices[i], got.BIPS, got.Watts, w.BIPS, w.Watts))
				break
			}
		}
	}
	return problems
}

func (e *env) queryPhases() []*servePhase {
	m := newMixer(e.seed, e.b.suite())
	var phases []*servePhase
	for _, rate := range serveRates {
		phases = append(phases, &servePhase{name: rate.name, rps: rate.rps,
			calls: m.phase(e.seed, rate.name, rate.rps, e.b.warmup, e.seconds/time.Duration(len(serveRates)))})
	}
	return phases
}

// reloadPhases is serve-reload's one phase: the query mix at the low
// rate while generations are refreshed back to back. At higher rates
// the view rebuilds after each reload tip the single remaining
// connection into transient overload, and the run measures the queue's
// chaos instead of the rebuild.
func (e *env) reloadPhases() []*servePhase {
	low := serveRates[0]
	calls := newMixer(e.seed, e.b.suite()).phase(e.seed, "reload", low.rps, e.b.warmup, e.seconds)
	return []*servePhase{{name: low.name, rps: low.rps, calls: calls, refresh: true}}
}

func runServeQuery(ctx context.Context, e *env) (*result, error) {
	r, _, err := e.runServe(ctx, e.queryPhases(), false)
	return r, err
}

func runServeReload(ctx context.Context, e *env) (*result, error) {
	r, _, err := e.runServe(ctx, e.reloadPhases(), false)
	return r, err
}
