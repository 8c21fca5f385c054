package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/atomicio"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/stats"
)

// BenchOptions configures a load-test run against a live daemon.
type BenchOptions struct {
	// URL is the daemon base URL, e.g. http://127.0.0.1:8080.
	URL string
	// Duration is the measured wall time per endpoint (default 5s).
	Duration time.Duration
	// Concurrency is the number of closed-loop client workers per
	// endpoint (default 8). Each worker issues its next request as soon
	// as the previous one answers, hey-style.
	Concurrency int
	// Endpoints selects which endpoints to drive, in order; nil means
	// DefaultBenchEndpoints.
	Endpoints []string
	// Bench is the benchmark name used in request bodies; empty means
	// the first benchmark the daemon reports via /v1/healthz.
	Bench string
	// PointsPerRequest is how many design points each predict/simulate
	// request carries (default 1: the single-design query, where the
	// serving layer's per-request cost dominates the engine's).
	PointsPerRequest int
	// Seed makes the driven index sequence deterministic (default 2007).
	Seed uint64
	// Warmup is driven but not measured before each endpoint's window
	// (default 200ms), so cold sweeps and cold caches are not billed to
	// the steady-state numbers.
	Warmup time.Duration
}

// DefaultBenchEndpoints is the endpoint order the driver uses when none
// is given. simulate is excluded by default: its per-request cost is
// simulator-bound and drowns the serving-layer signal at default trace
// lengths (drive it explicitly with -endpoints when wanted).
var DefaultBenchEndpoints = []string{"healthz", "predict", "sweep", "pareto"}

// simIndexPool bounds how many distinct design points the simulate
// endpoint is driven with, so steady-state traffic exercises the
// engine's memoization cache the way repeated study queries do.
const simIndexPool = 32

// EndpointReport is one endpoint's measured load-test result.
type EndpointReport struct {
	Endpoint string `json:"endpoint"`
	Requests int64  `json:"requests"`
	// Rejected counts 429 admission-control responses; Errors every
	// other non-2xx outcome or transport failure.
	Rejected int64   `json:"rejected,omitempty"`
	Errors   int64   `json:"errors,omitempty"`
	QPS      float64 `json:"qps"`
	P50ms    float64 `json:"p50_ms"`
	P99ms    float64 `json:"p99_ms"`
	MeanMs   float64 `json:"mean_ms"`

	// ColdFirstMs is the latency of a single probe issued before any
	// warmup traffic (view-cached endpoints only). On a daemon that has
	// not served this endpoint yet it measures the uncached path — the
	// full characterization scan plus view build — which is what every
	// request paid before materialized views existed.
	ColdFirstMs float64 `json:"cold_first_ms,omitempty"`
	// P99SpeedupVsCold is ColdFirstMs / P99ms: how much faster the hot
	// p99 is than the uncached first request.
	P99SpeedupVsCold float64 `json:"p99_speedup_vs_cold,omitempty"`
	// ViewHits/ViewMisses are the server's view-cache counter deltas
	// across this endpoint's warmup+measurement window (the cold probe
	// lands before the baseline snapshot, so its miss is excluded), read
	// from /v1/healthz; ViewHitRate is hits/(hits+misses).
	ViewHits    int64   `json:"view_hits,omitempty"`
	ViewMisses  int64   `json:"view_misses,omitempty"`
	ViewHitRate float64 `json:"view_hit_rate,omitempty"`
}

// Report is the full load-test result, written to BENCH_serve.json.
type Report struct {
	GitRev      string  `json:"git_rev"`
	GoVersion   string  `json:"go_version"`
	NumCPU      int     `json:"num_cpu"`
	URL         string  `json:"url"`
	Bench       string  `json:"bench"`
	DurationS   float64 `json:"duration_s"`
	Concurrency int     `json:"concurrency"`

	Endpoints []EndpointReport `json:"endpoints"`

	// Healthz is the server's /v1/healthz snapshot taken after the run.
	Healthz *HealthzResponse `json:"healthz,omitempty"`
}

// WriteFile writes the report as indented JSON via an atomic replace.
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return atomicio.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadTest drives a live daemon and measures per-endpoint QPS and
// latency quantiles. It is the in-repo `hey`: closed-loop workers, one
// endpoint at a time, client-side latency clocks.
func LoadTest(opts BenchOptions) (*Report, error) {
	if opts.URL == "" {
		return nil, fmt.Errorf("serve: bench needs a -url")
	}
	opts.URL = strings.TrimRight(opts.URL, "/")
	if opts.Duration <= 0 {
		opts.Duration = 5 * time.Second
	}
	if opts.Concurrency <= 0 {
		opts.Concurrency = 8
	}
	if opts.PointsPerRequest <= 0 {
		opts.PointsPerRequest = 1
	}
	if opts.Seed == 0 {
		opts.Seed = 2007
	}
	if opts.Warmup < 0 {
		opts.Warmup = 0
	} else if opts.Warmup == 0 {
		opts.Warmup = 200 * time.Millisecond
	}
	endpoints := opts.Endpoints
	if len(endpoints) == 0 {
		endpoints = DefaultBenchEndpoints
	}

	client := &http.Client{Timeout: 30 * time.Second}
	hz, err := fetchHealthz(client, opts.URL)
	if err != nil {
		return nil, fmt.Errorf("serve: bench target not healthy: %w", err)
	}
	if opts.Bench == "" {
		if len(hz.Benchmarks) == 0 {
			return nil, fmt.Errorf("serve: daemon reports no benchmarks")
		}
		opts.Bench = hz.Benchmarks[0]
	}

	rep := &Report{
		GitRev:      obs.GitRevision("."),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		URL:         opts.URL,
		Bench:       opts.Bench,
		DurationS:   opts.Duration.Seconds(),
		Concurrency: opts.Concurrency,
	}
	for _, ep := range endpoints {
		body, err := requestBodyFor(ep, opts, hz.SpaceSize)
		if err != nil {
			return nil, err
		}
		// View-cached endpoints get a single pre-warmup probe: on a fresh
		// daemon it pays the full uncached scan+build, giving the report a
		// cold-path baseline to compare the hot quantiles against.
		var coldMS float64
		if ep == "sweep" || ep == "pareto" {
			coldMS, err = probeOnce(client, opts, ep, body)
			if err != nil {
				return nil, fmt.Errorf("serve: cold probe of %s failed: %w", ep, err)
			}
		}
		before, _ := fetchHealthz(client, opts.URL)
		er, err := driveEndpoint(client, opts, ep, body)
		if err != nil {
			return nil, err
		}
		er.ColdFirstMs = coldMS
		if coldMS > 0 && er.P99ms > 0 {
			er.P99SpeedupVsCold = coldMS / er.P99ms
		}
		if after, err := fetchHealthz(client, opts.URL); err == nil && before != nil {
			er.ViewHits = after.ViewHits - before.ViewHits
			er.ViewMisses = after.ViewMisses - before.ViewMisses
			if total := er.ViewHits + er.ViewMisses; total > 0 {
				er.ViewHitRate = float64(er.ViewHits) / float64(total)
			}
		}
		rep.Endpoints = append(rep.Endpoints, er)
	}
	if hz, err := fetchHealthz(client, opts.URL); err == nil {
		rep.Healthz = hz
	}
	return rep, nil
}

// bodyFunc produces the next request body for one worker, or nil for a
// GET endpoint.
type bodyFunc func(r *rng.Source) []byte

// requestBodyFor builds the body generator for one endpoint. predict
// draws uniform study-space indices (every request a distinct point — no
// cache help, pure engine throughput); simulate draws from a small pool
// so the memoization cache sees revisits, matching how the studies query
// the simulator.
func requestBodyFor(ep string, opts BenchOptions, spaceSize int) (bodyFunc, error) {
	if spaceSize <= 0 {
		spaceSize = 1
	}
	marshal := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			panic(err) // request structs always marshal
		}
		return b
	}
	switch ep {
	case "healthz":
		return nil, nil
	case "predict":
		return func(r *rng.Source) []byte {
			idx := make([]int, opts.PointsPerRequest)
			for i := range idx {
				idx[i] = r.Intn(spaceSize)
			}
			return marshal(PointRequest{Bench: opts.Bench, Indices: idx})
		}, nil
	case "simulate":
		return func(r *rng.Source) []byte {
			idx := make([]int, opts.PointsPerRequest)
			for i := range idx {
				idx[i] = (r.Intn(simIndexPool) * (spaceSize / simIndexPool)) % spaceSize
			}
			return marshal(PointRequest{Bench: opts.Bench, Indices: idx})
		}, nil
	case "sweep":
		body := marshal(SweepRequest{Bench: opts.Bench, Top: 5})
		return func(*rng.Source) []byte { return body }, nil
	case "pareto":
		body := marshal(ParetoRequest{Bench: opts.Bench, Targets: 40})
		return func(*rng.Source) []byte { return body }, nil
	default:
		return nil, fmt.Errorf("serve: unknown bench endpoint %q", ep)
	}
}

// probeOnce issues a single request against one endpoint and returns its
// latency in milliseconds. A non-2xx answer is an error: the cold path
// must actually serve.
func probeOnce(client *http.Client, opts BenchOptions, ep string, body bodyFunc) (float64, error) {
	url := opts.URL + "/v1/" + ep
	r := rng.New(opts.Seed)
	t0 := time.Now()
	var resp *http.Response
	var err error
	if body == nil {
		resp, err = client.Get(url)
	} else {
		resp, err = client.Post(url, "application/json", bytes.NewReader(body(r)))
	}
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for keep-alive
	resp.Body.Close()
	if resp.StatusCode >= 300 {
		return 0, fmt.Errorf("%s returned %s", ep, resp.Status)
	}
	return float64(time.Since(t0).Microseconds()) / 1000, nil
}

// driveEndpoint runs the closed-loop workers for one endpoint and
// reduces their latency samples.
func driveEndpoint(client *http.Client, opts BenchOptions, ep string, body bodyFunc) (EndpointReport, error) {
	url := opts.URL + "/v1/" + ep
	type workerResult struct {
		latMS              []float64
		requests           int64
		rejected, errcount int64
	}
	results := make([]workerResult, opts.Concurrency)

	issue := func(r *rng.Source) (int, error) {
		var resp *http.Response
		var err error
		if body == nil {
			resp, err = client.Get(url)
		} else {
			resp, err = client.Post(url, "application/json", bytes.NewReader(body(r)))
		}
		if err != nil {
			return 0, err
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for keep-alive
		resp.Body.Close()
		return resp.StatusCode, nil
	}

	var wg sync.WaitGroup
	start := time.Now()
	measureFrom := start.Add(opts.Warmup)
	deadline := measureFrom.Add(opts.Duration)
	for w := 0; w < opts.Concurrency; w++ {
		wg.Add(1)
		go func(res *workerResult, seed uint64) {
			defer wg.Done()
			r := rng.New(seed)
			for {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				code, err := issue(r)
				if t0.Before(measureFrom) {
					continue // warmup request: driven, not billed
				}
				res.requests++
				switch {
				case err != nil:
					res.errcount++
				case code == http.StatusTooManyRequests:
					res.rejected++
				case code >= 300:
					res.errcount++
				default:
					res.latMS = append(res.latMS, float64(time.Since(t0).Microseconds())/1000)
				}
			}
		}(&results[w], opts.Seed+uint64(w)*7919)
	}
	wg.Wait()
	elapsed := time.Since(measureFrom).Seconds()

	er := EndpointReport{Endpoint: ep}
	var lats []float64
	for _, res := range results {
		er.Requests += res.requests
		er.Rejected += res.rejected
		er.Errors += res.errcount
		lats = append(lats, res.latMS...)
	}
	if elapsed > 0 {
		er.QPS = float64(len(lats)) / elapsed
	}
	if len(lats) > 0 {
		sort.Float64s(lats)
		er.P50ms = stats.QuantileSorted(lats, 0.50)
		er.P99ms = stats.QuantileSorted(lats, 0.99)
		er.MeanMs = stats.Mean(lats)
	}
	return er, nil
}

// fetchHealthz reads and decodes /v1/healthz.
func fetchHealthz(client *http.Client, baseURL string) (*HealthzResponse, error) {
	resp, err := client.Get(baseURL + "/v1/healthz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("healthz returned %s", resp.Status)
	}
	var hz HealthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		return nil, err
	}
	return &hz, nil
}
