package main

import (
	"sort"
	"time"

	"repro/internal/stats"
)

// metricDef names one reported metric. The end-to-end and per-layer
// lists mirror BENCHMARK.json; the smoke test holds them equal.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics an untraced run reports for every workload.
// A workload's operation is one dse process (report-paper, export-csv),
// one pass of the four study processes (studies-models), one HTTP
// request (serve-query) or one generation refresh (serve-reload). The
// mean stands in for a high percentile: it counts every stall in full
// yet stays steady across runs, where the p99 of a 15-second serve run
// moved by up to half its value between seeds. The traced run reports
// the percentiles.
var endToEnd = []metricDef{
	{"latency_p50_ms", "ms", "lower"},
	{"latency_mean_ms", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the metrics a traced run reports for every workload. A
// layer the workload never enters reads 0.
var perLayer = []metricDef{
	// Load generator and trace bookkeeping.
	{"trace.wall_ms", "ms", "lower"},
	{"trace.layer_coverage_pct", "%", "higher"},
	{"trace_overhead_pct", "%", "lower"},
	{"client.lag_p99_ms", "ms", "lower"},
	{"client.sent.low", "count", "higher"},
	{"client.sent.mid", "count", "higher"},
	{"client.sent.high", "count", "higher"},
	{"client.ok.low", "count", "higher"},
	{"client.ok.mid", "count", "higher"},
	{"client.ok.high", "count", "higher"},
	{"client.failed.low", "count", "lower"},
	{"client.failed.mid", "count", "lower"},
	{"client.failed.high", "count", "lower"},
	// trace: synthetic trace generation.
	{"trace.synth_ms", "ms", "lower"},
	// core dataset build and the simulator beneath it.
	{"core.train_ms", "ms", "lower"},
	{"core.dataset_ms", "ms", "lower"},
	{"sim.evaluations", "count", "lower"},
	{"sim.warm_hit_ratio", "ratio", "higher"},
	{"sim.cache_hit_ratio", "ratio", "higher"},
	{"sim.ns_per_timed_inst", "ns", "lower"},
	// regression fitting and compilation; model loading.
	{"regression.fit_ms", "ms", "lower"},
	{"regression.compile_ms", "ms", "lower"},
	{"core.load_models_ms", "ms", "lower"},
	// core sweep.
	{"core.sweep_ms", "ms", "lower"},
	{"core.sweep_mpred_per_s", "Mpred/s", "higher"},
	{"model.swept_points", "count", "lower"},
	// core validation and model quality.
	{"core.validate_ms", "ms", "lower"},
	{"validate.sim_evaluations", "count", "lower"},
	{"model.perf_err_p50_pct", "%", "lower"},
	{"model.power_err_p50_pct", "%", "lower"},
	// studies.
	{"study.pareto_ms", "ms", "lower"},
	{"study.depth_ms", "ms", "lower"},
	{"study.hetero_ms", "ms", "lower"},
	{"study.search_ms", "ms", "lower"},
	{"study.pareto_sim_evaluations", "count", "lower"},
	{"study.depth_sim_evaluations", "count", "lower"},
	{"study.hetero_sim_evaluations", "count", "lower"},
	{"study.search_sim_evaluations", "count", "lower"},
	// report writers.
	{"report.text_ms", "ms", "lower"},
	{"report.csv_ms", "ms", "lower"},
	{"report.csv_bytes", "bytes", "lower"},
	{"report.csv_write_calls", "count", "lower"},
	{"report.figure5a_unstable_fields", "count", "lower"},
	// serve, client side: latency at each fixed rate.
	{"p50_ms.low", "ms", "lower"},
	{"p50_ms.mid", "ms", "lower"},
	{"p50_ms.high", "ms", "lower"},
	{"p99_ms.low", "ms", "lower"},
	{"p99_ms.mid", "ms", "lower"},
	{"p99_ms.high", "ms", "lower"},
	{"max_rate_rps", "rps", "higher"},
	// serve, client side: latency by route.
	{"serve.predict1.p50_ms", "ms", "lower"},
	{"serve.predict1.p99_ms", "ms", "lower"},
	{"serve.predict64.p50_ms", "ms", "lower"},
	{"serve.predict64.p99_ms", "ms", "lower"},
	{"serve.simulate.p50_ms", "ms", "lower"},
	{"serve.simulate.p99_ms", "ms", "lower"},
	{"serve.sweep.p50_ms", "ms", "lower"},
	{"serve.sweep.p99_ms", "ms", "lower"},
	{"serve.pareto.p50_ms", "ms", "lower"},
	{"serve.pareto.p99_ms", "ms", "lower"},
	{"serve.reload.p50_ms", "ms", "lower"},
	{"serve.reload.p99_ms", "ms", "lower"},
	{"serve.view.cold_ms", "ms", "lower"},
	// serve, from dsed's exit manifest.
	{"serve.predict.batch_points", "count", "higher"},
	{"serve.view.hit_ratio", "ratio", "higher"},
	{"serve.view.builds", "count", "lower"},
	{"serve.rejected", "count", "lower"},
	{"serve.timeouts", "count", "lower"},
	// eval, in process on the same models.
	{"eval.predict_batch_us.b1", "us", "lower"},
	{"eval.predict_batch_us.b2", "us", "lower"},
	{"eval.predict_batch_us.b64", "us", "lower"},
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the p-quantile of values (linear interpolation), 0
// for an empty slice.
func quantile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return stats.QuantileSorted(s, p)
}

// mean returns the arithmetic mean of values, 0 for an empty slice.
func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	return stats.Mean(values)
}

func medianDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// ratio returns num/den, 0 when den is 0.
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
