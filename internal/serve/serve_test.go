package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/fault"
)

// Model fixture: train one tiny explorer per process and keep its saved
// model bytes; every test loader deserializes a fresh Explorer from them,
// which is exactly the production reload path (dse -savemodels → dsed
// -loadmodels) minus the filesystem.
var (
	modelOnce  sync.Once
	modelBytes []byte
	modelErr   error
)

func testOptions() core.Options {
	opts := core.DefaultOptions()
	opts.TrainSamples = 40
	opts.ValidationSamples = 5
	opts.TraceLen = 2000
	opts.Benchmarks = []string{"gzip", "mcf"}
	return opts
}

func savedModels(t *testing.T) []byte {
	t.Helper()
	modelOnce.Do(func() {
		e, err := core.New(testOptions())
		if err != nil {
			modelErr = err
			return
		}
		if err := e.Train(); err != nil {
			modelErr = err
			return
		}
		var buf bytes.Buffer
		if err := e.SaveModels(&buf); err != nil {
			modelErr = err
			return
		}
		modelBytes = buf.Bytes()
	})
	if modelErr != nil {
		t.Fatal(modelErr)
	}
	return modelBytes
}

func testLoader(t *testing.T) Loader {
	data := savedModels(t)
	return func() (*core.Explorer, error) {
		e, err := core.New(testOptions())
		if err != nil {
			return nil, err
		}
		if err := e.LoadModels(bytes.NewReader(data)); err != nil {
			return nil, err
		}
		return e, nil
	}
}

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(testLoader(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body) //nolint:errcheck // test helper
	return resp, buf.Bytes()
}

func decodeInto(t *testing.T, data []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("decoding %s: %v", data, err)
	}
}

func TestEndpointsServe(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	// healthz: GET, generation 1, the trained benchmarks, full space.
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz HealthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || hz.Status != "ok" {
		t.Fatalf("healthz = %d %q, want 200 ok", resp.StatusCode, hz.Status)
	}
	if hz.Generation != 1 {
		t.Fatalf("generation = %d, want 1", hz.Generation)
	}
	if len(hz.Benchmarks) != 2 || hz.Benchmarks[0] != "gzip" {
		t.Fatalf("benchmarks = %v", hz.Benchmarks)
	}
	if hz.SpaceSize <= 0 {
		t.Fatalf("space size = %d", hz.SpaceSize)
	}

	// predict: indices resolve through the study space, answers in order.
	resp2, body := postJSON(t, ts.URL+"/v1/predict", PointRequest{Bench: "gzip", Indices: []int{0, 1, hz.SpaceSize - 1}})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("predict = %d: %s", resp2.StatusCode, body)
	}
	var pr PointResponse
	decodeInto(t, body, &pr)
	if len(pr.Results) != 3 || pr.Bench != "gzip" || pr.Generation != 1 {
		t.Fatalf("predict response = %+v", pr)
	}

	// simulate: ground truth for the same points, strictly positive.
	resp3, body := postJSON(t, ts.URL+"/v1/simulate", PointRequest{Bench: "mcf", Indices: []int{7}})
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("simulate = %d: %s", resp3.StatusCode, body)
	}
	var sr PointResponse
	decodeInto(t, body, &sr)
	if len(sr.Results) != 1 || sr.Results[0].BIPS <= 0 || sr.Results[0].Watts <= 0 {
		t.Fatalf("simulate response = %+v", sr)
	}

	// sweep: full exhaustive characterization, best list ranked by
	// efficiency.
	resp4, body := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{Bench: "gzip", Top: 3})
	if resp4.StatusCode != http.StatusOK {
		t.Fatalf("sweep = %d: %s", resp4.StatusCode, body)
	}
	var sw SweepResponse
	decodeInto(t, body, &sw)
	if sw.Points != hz.SpaceSize {
		t.Fatalf("sweep points = %d, want %d", sw.Points, hz.SpaceSize)
	}
	if len(sw.Best) != 3 {
		t.Fatalf("best = %d designs, want 3", len(sw.Best))
	}
	for i := 1; i < len(sw.Best); i++ {
		if sw.Best[i].BIPS3W > sw.Best[i-1].BIPS3W {
			t.Fatalf("best not ranked: %v", sw.Best)
		}
	}

	// pareto: frontier from the same cached sweep.
	resp5, body := postJSON(t, ts.URL+"/v1/pareto", ParetoRequest{Bench: "gzip", Targets: 20})
	if resp5.StatusCode != http.StatusOK {
		t.Fatalf("pareto = %d: %s", resp5.StatusCode, body)
	}
	var pf ParetoResponse
	decodeInto(t, body, &pf)
	if len(pf.Frontier) == 0 {
		t.Fatal("empty pareto frontier")
	}
	for _, fp := range pf.Frontier {
		if fp.DelayS <= 0 || fp.Watts <= 0 {
			t.Fatalf("unphysical frontier point %+v", fp)
		}
	}
}

func TestInputValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cases := []struct {
		name string
		url  string
		body any
		want int
	}{
		{"unknown bench", "/v1/predict", PointRequest{Bench: "nope", Indices: []int{0}}, 400},
		{"missing bench", "/v1/predict", PointRequest{Indices: []int{0}}, 400},
		{"no points", "/v1/predict", PointRequest{Bench: "gzip"}, 400},
		{"index out of range", "/v1/predict", PointRequest{Bench: "gzip", Indices: []int{1 << 30}}, 400},
		{"negative index", "/v1/simulate", PointRequest{Bench: "gzip", Indices: []int{-1}}, 400},
		{"sweep unknown bench", "/v1/sweep", SweepRequest{Bench: "nope"}, 400},
		{"pareto too many targets", "/v1/pareto", ParetoRequest{Bench: "gzip", Targets: 99999}, 400},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+tc.url, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d (%s)", tc.name, resp.StatusCode, tc.want, body)
		}
		var eb errorBody
		decodeInto(t, body, &eb)
		if eb.Status != tc.want || eb.Error == "" {
			t.Errorf("%s: envelope = %+v", tc.name, eb)
		}
	}

	// Non-JSON body.
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body = %d, want 400", resp.StatusCode)
	}

	// Wrong methods.
	resp, err = http.Get(ts.URL + "/v1/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET predict = %d, want 405", resp.StatusCode)
	}
	rq, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/healthz", nil)
	resp, err = http.DefaultClient.Do(rq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST healthz = %d, want 405", resp.StatusCode)
	}
}

// holdEngine arms a one-shot eval.invoke delay: the next backend
// evaluation in the process sleeps for d, holding its request in flight
// past admission and generation resolution. The previous plan is
// restored when the test ends.
func holdEngine(t *testing.T, d time.Duration) {
	t.Helper()
	prev := fault.Current()
	fault.Enable(&fault.Plan{Rules: []fault.Rule{
		{Site: "eval.invoke", Kind: fault.KindDelay, Every: 1, Count: 1, Delay: d},
	}})
	t.Cleanup(func() { fault.Enable(prev) })
}

// waitFor polls cond every millisecond for up to a second.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for i := 0; !cond(); i++ {
		if i > 1000 {
			t.Fatalf("%s never happened", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// wantPredictions requires got to equal PredictBatch on e for the same
// study-space indices, bit for bit.
func wantPredictions(t *testing.T, e *core.Explorer, bench string, indices []int, got []PointResult) {
	t.Helper()
	reqs := make([]eval.Request, len(indices))
	for i, idx := range indices {
		reqs[i] = eval.Request{Config: e.StudySpace.Config(e.StudySpace.PointAt(idx)), Bench: bench}
	}
	res, err := e.PredictBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	want := pointResults(res)
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("index %d: served %+v, PredictBatch %+v", indices[i], got[i], want[i])
		}
	}
}

// TestPredictOneBatchPerRequest pins the request path: concurrent
// single-point predicts each reach the engine as their own batch, at
// once, and every answer is exactly what PredictBatch computes.
func TestPredictOneBatchPerRequest(t *testing.T) {
	const n = 16
	s, ts := newTestServer(t, Options{})
	e, _ := s.Generation()
	base := e.ModelStats().BatchCalls

	var start, done sync.WaitGroup
	start.Add(1)
	errs := make(chan error, n)
	got := make([]PointResult, n)
	for i := 0; i < n; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			start.Wait()
			resp, body := postJSON(t, ts.URL+"/v1/predict", PointRequest{Bench: "gzip", Indices: []int{i}})
			var pr PointResponse
			if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &pr) != nil || len(pr.Results) != 1 {
				errs <- fmt.Errorf("predict %d = %d: %s", i, resp.StatusCode, body)
				return
			}
			got[i] = pr.Results[0]
		}(i)
	}
	start.Done()
	done.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if batches := e.ModelStats().BatchCalls - base; batches != n {
		t.Fatalf("%d concurrent predicts cost %d engine batches, want %d", n, batches, n)
	}
	if st := s.Stats(); st.Predicts != n || st.Requests != n {
		t.Fatalf("predicts = %d, requests = %d, want %d", st.Predicts, st.Requests, n)
	}
	indices := make([]int, n)
	for i := range indices {
		indices[i] = i
	}
	wantPredictions(t, e, "gzip", indices, got)
}

// TestPointRequestKeepsItsGeneration reloads while a predict is inside
// the engine: the request was validated on generation 1, so it must be
// answered and labelled by generation 1 too.
func TestPointRequestKeepsItsGeneration(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	e1, _ := s.Generation()
	holdEngine(t, 300*time.Millisecond)

	indices := []int{42}
	done := make(chan PointResponse, 1)
	go func() {
		resp, body := postJSON(t, ts.URL+"/v1/predict", PointRequest{Bench: "gzip", Indices: indices})
		var pr PointResponse
		if resp.StatusCode == http.StatusOK {
			json.Unmarshal(body, &pr) //nolint:errcheck // zero value fails the asserts below
		}
		done <- pr
	}()
	waitFor(t, "predict reaching the engine", func() bool { return e1.ModelStats().InFlight > 0 })
	if gen, err := s.Reload(); err != nil || gen != 2 {
		t.Fatalf("reload = %d, %v; want generation 2", gen, err)
	}

	pr := <-done
	if pr.Generation != 1 {
		t.Fatalf("request validated on generation 1 reported generation %d", pr.Generation)
	}
	wantPredictions(t, e1, "gzip", indices, pr.Results)
}

// TestStatsEpochSpansReloads checks that engine work survives a reload:
// the epoch after one reload counts the predicts both generations
// served.
func TestStatsEpochSpansReloads(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	s.StatsEpoch() // start the epoch after loading
	predict := func() {
		if resp, body := postJSON(t, ts.URL+"/v1/predict", PointRequest{Bench: "gzip", Indices: []int{1}}); resp.StatusCode != http.StatusOK {
			t.Fatalf("predict = %d: %s", resp.StatusCode, body)
		}
	}
	predict()
	if _, err := s.Reload(); err != nil {
		t.Fatal(err)
	}
	predict()
	predict()
	if _, model := s.StatsEpoch(); model.BatchCalls != 3 {
		t.Fatalf("model batches over a reload = %d, want 3", model.BatchCalls)
	}
	if _, model := s.StatsEpoch(); model.BatchCalls != 0 {
		t.Fatalf("model batches in a fresh epoch = %d, want 0", model.BatchCalls)
	}
}

func TestDeadlineReturns504(t *testing.T) {
	_, ts := newTestServer(t, Options{RequestTimeout: time.Nanosecond})
	resp, body := postJSON(t, ts.URL+"/v1/predict", PointRequest{Bench: "gzip", Indices: []int{0}})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504", resp.StatusCode, body)
	}
	var eb errorBody
	decodeInto(t, body, &eb)
	if eb.Status != http.StatusGatewayTimeout || eb.Error == "" {
		t.Fatalf("envelope = %+v", eb)
	}
}

func TestAdmissionControl429(t *testing.T) {
	// One admitted slot; an engine delay holds the first request in
	// flight while the second arrives.
	s, ts := newTestServer(t, Options{MaxInFlight: 1})
	holdEngine(t, 500*time.Millisecond)

	firstDone := make(chan int, 1)
	go func() {
		resp, _ := http.Post(ts.URL+"/v1/predict", "application/json",
			strings.NewReader(`{"bench":"gzip","indices":[0]}`))
		resp.Body.Close()
		firstDone <- resp.StatusCode
	}()

	waitFor(t, "first request admission", func() bool { return s.Stats().InFlight > 0 })

	resp, body := postJSON(t, ts.URL+"/v1/predict", PointRequest{Bench: "gzip", Indices: []int{1}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request = %d (%s), want 429", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", ra)
	}
	var eb errorBody
	decodeInto(t, body, &eb)
	if eb.RetryAfterS != 1 {
		t.Fatalf("envelope retry_after_s = %d, want 1", eb.RetryAfterS)
	}

	if code := <-firstDone; code != http.StatusOK {
		t.Fatalf("admitted request = %d, want 200", code)
	}
	if st := s.Stats(); st.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", st.Rejected)
	}
}

func TestHotReloadMidTraffic(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	holdEngine(t, 200*time.Millisecond)

	// A request in flight across the swap: admitted on generation 1 and
	// still running when the reload lands, it must succeed.
	inflightDone := make(chan PointResponse, 1)
	go func() {
		resp, body := postJSON(t, ts.URL+"/v1/predict", PointRequest{Bench: "gzip", Indices: []int{3}})
		var pr PointResponse
		if resp.StatusCode == http.StatusOK {
			json.Unmarshal(body, &pr) //nolint:errcheck // zero value fails the assert below
		}
		inflightDone <- pr
	}()
	waitFor(t, "request admission", func() bool { return s.Stats().InFlight > 0 })

	resp, body := postJSON(t, ts.URL+"/v1/reload", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload = %d: %s", resp.StatusCode, body)
	}
	var rr ReloadResponse
	decodeInto(t, body, &rr)
	if rr.Generation != 2 {
		t.Fatalf("generation after reload = %d, want 2", rr.Generation)
	}

	pr := <-inflightDone
	if len(pr.Results) != 1 || pr.Generation == 0 {
		t.Fatalf("in-flight request across reload = %+v", pr)
	}

	// New traffic lands on the new generation.
	_, body = postJSON(t, ts.URL+"/v1/predict", PointRequest{Bench: "gzip", Indices: []int{3}})
	var pr2 PointResponse
	decodeInto(t, body, &pr2)
	if pr2.Generation != 2 {
		t.Fatalf("post-reload generation = %d, want 2", pr2.Generation)
	}
	if st := s.Stats(); st.Reloads != 1 || st.Generation != 2 {
		t.Fatalf("stats after reload = %+v", st)
	}
}

// TestReloadedModelsMatch pins the swap semantics: both generations are
// loaded from the same bytes, so predictions across a reload must be
// bit-identical.
func TestReloadedModelsMatch(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	_, body := postJSON(t, ts.URL+"/v1/predict", PointRequest{Bench: "mcf", Indices: []int{123}})
	var before PointResponse
	decodeInto(t, body, &before)
	if _, err := s.Reload(); err != nil {
		t.Fatal(err)
	}
	_, body = postJSON(t, ts.URL+"/v1/predict", PointRequest{Bench: "mcf", Indices: []int{123}})
	var after PointResponse
	decodeInto(t, body, &after)
	if len(before.Results) != 1 || len(after.Results) != 1 {
		t.Fatalf("results = %+v / %+v", before, after)
	}
	if before.Results[0] != after.Results[0] {
		t.Fatalf("prediction changed across reload of identical models: %+v -> %+v",
			before.Results[0], after.Results[0])
	}
}

func TestGracefulDrain(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	holdEngine(t, 300*time.Millisecond)

	inflightDone := make(chan int, 1)
	go func() {
		resp, _ := http.Post(ts.URL+"/v1/predict", "application/json",
			strings.NewReader(`{"bench":"gzip","indices":[0]}`))
		resp.Body.Close()
		inflightDone <- resp.StatusCode
	}()
	waitFor(t, "request admission", func() bool { return s.Stats().InFlight > 0 })

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	waitFor(t, "draining", func() bool { return s.Stats().Draining })

	// New work is refused immediately with 503 + Retry-After.
	resp, body := postJSON(t, ts.URL+"/v1/predict", PointRequest{Bench: "gzip", Indices: []int{1}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("request while draining = %d (%s), want 503", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", ra)
	}
	// Reload is refused too: no point loading models into a dying server.
	resp, _ = postJSON(t, ts.URL+"/v1/reload", struct{}{})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("reload while draining = %d, want 503", resp.StatusCode)
	}
	// healthz reports draining with a 503 so load balancers eject the
	// instance.
	hresp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz HealthzResponse
	json.NewDecoder(hresp.Body).Decode(&hz) //nolint:errcheck // asserted below
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable || hz.Status != "draining" {
		t.Fatalf("healthz while draining = %d %q, want 503 draining", hresp.StatusCode, hz.Status)
	}

	// The in-flight request completes and the drain finishes cleanly.
	if code := <-inflightDone; code != http.StatusOK {
		t.Fatalf("in-flight request during drain = %d, want 200", code)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown = %v", err)
	}
}

// TestServeShutdownOnListener exercises the managed-listener path: Serve
// must return nil after a drain and the in-flight request must finish.
func TestServeShutdownOnListener(t *testing.T) {
	s, err := New(testLoader(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	holdEngine(t, 200*time.Millisecond)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()
	url := "http://" + ln.Addr().String()

	inflightDone := make(chan int, 1)
	go func() {
		resp, err := http.Post(url+"/v1/predict", "application/json",
			strings.NewReader(`{"bench":"gzip","indices":[5]}`))
		if err != nil {
			inflightDone <- -1
			return
		}
		resp.Body.Close()
		inflightDone <- resp.StatusCode
	}()
	waitFor(t, "request admission", func() bool { return s.Stats().InFlight > 0 })

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown = %v", err)
	}
	if code := <-inflightDone; code != http.StatusOK {
		t.Fatalf("in-flight request = %d, want 200", code)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve returned %v after clean shutdown, want nil", err)
	}
}

// Fault-site tests: the serving path must convert injected failures into
// well-formed 500s and keep serving — a panic or an injected error in one
// request is not allowed to kill the daemon.

func TestFaultInjectedRequestError(t *testing.T) {
	if fault.Active() {
		t.Skip("ambient fault plan armed")
	}
	s, ts := newTestServer(t, Options{})
	fault.Enable(&fault.Plan{Rules: []fault.Rule{
		{Site: "serve.request", Kind: fault.KindError, Every: 1, Count: 1},
	}})
	defer fault.Disable()

	resp, body := postJSON(t, ts.URL+"/v1/predict", PointRequest{Bench: "gzip", Indices: []int{0}})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("faulted request = %d (%s), want 500", resp.StatusCode, body)
	}
	var eb errorBody
	decodeInto(t, body, &eb)
	if eb.Status != 500 || !strings.Contains(eb.Error, "fault") {
		t.Fatalf("envelope = %+v", eb)
	}
	// The rule fired its single shot; the server keeps serving.
	resp, body = postJSON(t, ts.URL+"/v1/predict", PointRequest{Bench: "gzip", Indices: []int{0}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after fault = %d (%s), want 200", resp.StatusCode, body)
	}
	if st := s.Stats(); st.Errors != 1 {
		t.Fatalf("errors = %d, want 1", st.Errors)
	}
}

func TestFaultInjectedPanicRecovered(t *testing.T) {
	if fault.Active() {
		t.Skip("ambient fault plan armed")
	}
	s, ts := newTestServer(t, Options{})
	fault.Enable(&fault.Plan{Rules: []fault.Rule{
		{Site: "serve.request", Kind: fault.KindPanic, Every: 1, Count: 1},
	}})
	defer fault.Disable()

	resp, body := postJSON(t, ts.URL+"/v1/predict", PointRequest{Bench: "gzip", Indices: []int{0}})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicked request = %d (%s), want 500", resp.StatusCode, body)
	}
	var eb errorBody
	decodeInto(t, body, &eb)
	if !strings.Contains(eb.Error, "panic") {
		t.Fatalf("envelope = %+v, want a panic message", eb)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/predict", PointRequest{Bench: "gzip", Indices: []int{0}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after recovered panic = %d, want 200", resp.StatusCode)
	}
	if st := s.Stats(); st.Panics != 1 {
		t.Fatalf("panics = %d, want 1", st.Panics)
	}
}

func TestFaultFailedReloadKeepsOldGeneration(t *testing.T) {
	if fault.Active() {
		t.Skip("ambient fault plan armed")
	}
	s, ts := newTestServer(t, Options{})
	fault.Enable(&fault.Plan{Rules: []fault.Rule{
		{Site: "serve.reload", Kind: fault.KindError, Every: 1, Count: 1},
	}})
	defer fault.Disable()

	resp, body := postJSON(t, ts.URL+"/v1/reload", struct{}{})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("faulted reload = %d (%s), want 500", resp.StatusCode, body)
	}
	if _, gen := s.Generation(); gen != 1 {
		t.Fatalf("generation after failed reload = %d, want 1", gen)
	}
	resp, body = postJSON(t, ts.URL+"/v1/predict", PointRequest{Bench: "gzip", Indices: []int{0}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict after failed reload = %d (%s), want 200", resp.StatusCode, body)
	}
	var pr PointResponse
	decodeInto(t, body, &pr)
	if pr.Generation != 1 {
		t.Fatalf("serving generation = %d, want 1 (old models)", pr.Generation)
	}
	st := s.Stats()
	if st.ReloadFailures != 1 || st.Reloads != 0 {
		t.Fatalf("reload counters = %+v", st)
	}

	// With the rule exhausted the next reload succeeds.
	resp, _ = postJSON(t, ts.URL+"/v1/reload", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload after fault cleared = %d, want 200", resp.StatusCode)
	}
	if _, gen := s.Generation(); gen != 2 {
		t.Fatalf("generation = %d, want 2", gen)
	}
}

func TestLoaderFailureAtStartup(t *testing.T) {
	_, err := New(func() (*core.Explorer, error) {
		return nil, fmt.Errorf("no models here")
	}, Options{})
	if err == nil || !strings.Contains(err.Error(), "no models here") {
		t.Fatalf("New with failing loader = %v, want the loader error", err)
	}
}

func TestUntrainedLoaderRejected(t *testing.T) {
	_, err := New(func() (*core.Explorer, error) {
		return core.New(testOptions())
	}, Options{})
	if err == nil || !strings.Contains(err.Error(), "untrained") {
		t.Fatalf("New with untrained explorer = %v, want untrained error", err)
	}
}
