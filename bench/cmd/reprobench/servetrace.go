package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/rng"
)

var serveRoutes = []string{"predict1", "predict64", "simulate", "sweep", "pareto", "reload"}

func tracedServeQuery(ctx context.Context, e *env, untraced *result) (*result, error) {
	return e.tracedServe(ctx, "serve-query", e.queryPhases(), untraced)
}

func tracedServeReload(ctx context.Context, e *env, untraced *result) (*result, error) {
	return e.tracedServe(ctx, "serve-reload", e.reloadPhases(), untraced)
}

// answer is one request and its outcome, with the phase start its
// offsets count from.
type answer struct {
	c     call
	o     outcome
	start time.Time
}

// tracedServe repeats a serve workload, turns every request into a span
// under its phase's (and refresh's) span, and derives the client-side,
// daemon-manifest and in-process eval metrics. Route latencies are those
// of the open-loop traffic, except reload, which only refreshes send.
func (e *env) tracedServe(ctx context.Context, name string, phases []*servePhase, untraced *result) (*result, error) {
	r, sr, err := e.runServe(ctx, phases, true)
	if err != nil {
		return nil, err
	}
	m := r.metrics
	t := newTracer(name, e.seed)
	first, last := phases[0], phases[len(phases)-1]
	root := t.add("workload."+name, 0, first.start, last.start.Add(last.wall))
	var wall time.Duration
	var lags []float64
	var all []answer
	byRoute := map[string][]float64{}
	for _, ph := range phases {
		wall += ph.wall
		pid := t.add("phase."+ph.name, root, ph.start, ph.start.Add(ph.wall))
		var lat []float64
		failed := 0
		for i, c := range ph.calls {
			o := ph.outs[i]
			all = append(all, answer{c, o, ph.start})
			t.add("serve."+c.Route, pid, ph.start.Add(o.Sent), ph.start.Add(o.Done))
			if !o.ok() {
				failed++
				continue
			}
			if c.Billed {
				lat = append(lat, ms(o.latency(c)))
				lags = append(lags, ms(o.lag(c)))
				byRoute[c.Route] = append(byRoute[c.Route], ms(o.latency(c)))
			}
		}
		for _, op := range ph.ops {
			oid := t.add("refresh", pid, ph.start.Add(op.start), ph.start.Add(op.start+op.latency()))
			for i, c := range op.calls {
				o := op.outs[i]
				all = append(all, answer{c, o, ph.start})
				t.add("serve."+c.Route, oid, ph.start.Add(o.Sent), ph.start.Add(o.Done))
				if c.Route == "reload" && c.Billed && o.ok() {
					byRoute["reload"] = append(byRoute["reload"], ms(o.latency(c)))
				}
			}
		}
		m["client.sent."+ph.name] = float64(len(ph.calls))
		m["client.ok."+ph.name] = float64(len(ph.calls) - failed)
		m["client.failed."+ph.name] = float64(failed)
		m["p50_ms."+ph.name] = quantile(lat, 0.5)
		m["p99_ms."+ph.name] = quantile(lat, 0.99)
		if meetsLimits(ph, failed) && ph.rps > m["max_rate_rps"] {
			m["max_rate_rps"] = ph.rps
		}
	}
	for _, route := range serveRoutes {
		m["serve."+route+".p50_ms"] = quantile(byRoute[route], 0.5)
		m["serve."+route+".p99_ms"] = quantile(byRoute[route], 0.99)
	}
	m["serve.view.cold_ms"] = coldViewMs(all)
	m["client.lag_p99_ms"] = quantile(lags, 0.99)
	m["trace.wall_ms"] = ms(wall)
	m["trace_overhead_pct"] = overheadPct(m["latency_p50_ms"], untraced.metrics["latency_p50_ms"])

	if ph := sr.manifest.Phases; len(ph) > 0 {
		s := ph[len(ph)-1].Stats
		m["serve.predict.batch_points"] = ratio(s["serve_predict_coalesced"], s["serve_predict_batches"])
		m["serve.view.hit_ratio"] = ratio(s["serve_view_hits"], s["serve_view_hits"]+s["serve_view_misses"])
		m["serve.view.builds"] = float64(s["serve_view_builds"])
		m["serve.rejected"] = float64(s["serve_rejected"])
		m["serve.timeouts"] = float64(s["serve_timeouts"])
		m["sim.evaluations"] = float64(s["sim_evaluations"])
		m["sim.cache_hit_ratio"] = ratio(s["sim_cache_hits"], s["sim_cache_hits"]+s["sim_cache_misses"])
		m["sim.warm_hit_ratio"] = ratio(s["sim_warm_hits"], s["sim_warm_hits"]+s["sim_warm_misses"])
	}
	ex, err := e.loadExplorer()
	if err != nil {
		return nil, err
	}
	for _, n := range []int{1, 2, 64} {
		us, err := predictBatchMicros(ctx, ex, e.seed, n)
		if err != nil {
			return nil, err
		}
		m[fmt.Sprintf("eval.predict_batch_us.b%d", n)] = us
	}
	return r, e.finishTrace(t)
}

// meetsLimits reports whether a phase held its rate: p99 latency within
// the limit counting every failed request as a miss, failures within
// their share, and no growing backlog (p99 lag within its limit).
func meetsLimits(ph *servePhase, failed int) bool {
	var lat, lag []float64
	for i, c := range ph.calls {
		if !c.Billed {
			continue
		}
		o := ph.outs[i]
		l := ms(o.latency(c))
		if !o.ok() {
			l = ms(latencyLimit) + 1
		}
		lat = append(lat, l)
		lag = append(lag, ms(o.lag(c)))
	}
	return len(lat) > 0 &&
		quantile(lat, 0.99) <= ms(latencyLimit) &&
		float64(failed) <= maxErrorShare*float64(len(lat)) &&
		quantile(lag, 0.99) <= ms(lagLimit)
}

// coldViewMs is the median latency of the first sweep or pareto request
// for each benchmark in each model generation: the one that builds the
// benchmark's materialized view.
func coldViewMs(all []answer) float64 {
	// Generations change when a reload answers, so walk in answer order.
	sort.Slice(all, func(a, b int) bool {
		return all[a].start.Add(all[a].o.Done).Before(all[b].start.Add(all[b].o.Done))
	})
	gen := 1
	seen := map[string]bool{}
	var cold []float64
	for _, a := range all {
		if !a.o.ok() {
			continue
		}
		switch a.c.Route {
		case "reload":
			gen++
		case "sweep", "pareto":
			key := fmt.Sprintf("%d/%s", gen, a.c.Bench)
			if !seen[key] {
				seen[key] = true
				cold = append(cold, ms(a.o.latency(a.c)))
			}
		}
	}
	return quantile(cold, 0.5)
}

// predictBatchMicros times Explorer.PredictBatch on batches of n uniform
// designs and returns the median call time in microseconds.
func predictBatchMicros(ctx context.Context, ex *core.Explorer, seed uint64, n int) (float64, error) {
	space := ex.StudySpace
	benches := ex.Benchmarks()
	r := rng.NewFromString(fmt.Sprintf("eval-batch/%d/%d", seed, n))
	batches := make([][]eval.Request, 64)
	for i := range batches {
		bench := benches[r.Intn(len(benches))]
		for j := 0; j < n; j++ {
			batches[i] = append(batches[i], eval.Request{Config: space.Config(space.PointAt(r.Intn(space.Size()))), Bench: bench})
		}
	}
	var samples []float64
	deadline := time.Now().Add(200 * time.Millisecond)
	for i := 0; i < 2*len(batches) || time.Now().Before(deadline); i++ {
		start := time.Now()
		if _, err := ex.PredictBatch(ctx, batches[i%len(batches)]); err != nil {
			return 0, err
		}
		if i >= len(batches) { // the first pass warms the engine
			samples = append(samples, float64(time.Since(start).Nanoseconds())/1e3)
		}
	}
	return quantile(samples, 0.5), nil
}
