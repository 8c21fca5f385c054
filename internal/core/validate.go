package core

import (
	"context"
	"fmt"

	"repro/internal/arch"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/stats"
)

// BenchmarkErrors holds the validation error samples for one benchmark:
// the paper's |observed - predicted| / predicted metric for performance
// and power (Section 3.4).
type BenchmarkErrors struct {
	Benchmark string
	Perf      []float64
	Power     []float64
}

// ValidationReport is the data behind the paper's Figure 1: per-benchmark
// error distributions for random validation designs.
type ValidationReport struct {
	PerBenchmark []BenchmarkErrors
}

// OverallMedians returns the suite-wide median performance and power
// errors, the headline numbers of Section 3.4 (paper: 7.2% and 5.4%).
func (r *ValidationReport) OverallMedians() (perf, power float64) {
	var allPerf, allPower []float64
	for _, b := range r.PerBenchmark {
		allPerf = append(allPerf, b.Perf...)
		allPower = append(allPower, b.Power...)
	}
	return stats.Median(allPerf), stats.Median(allPower)
}

// Validate simulates n designs sampled uniformly at random from the
// sampling space (disjoint seed from training) and reports prediction
// errors against the models. n defaults to the configured
// ValidationSamples when zero.
func (e *Explorer) Validate(n int) (*ValidationReport, error) {
	if !e.Trained() {
		return nil, fmt.Errorf("core: Validate before Train")
	}
	if n <= 0 {
		n = e.opts.ValidationSamples
	}
	if n <= 0 {
		n = 100
	}
	// A different seed stream keeps validation designs independent of
	// training samples.
	points := e.SampleSpace.SampleUAR(n, e.opts.Seed^0x76616c)
	configs := make([]arch.Config, len(points))
	for i, pt := range points {
		configs[i] = e.SampleSpace.Config(pt)
	}
	ctx, sp := obs.Start(context.Background(), "core.validate",
		obs.Int("designs", int64(n)),
		obs.Int("benchmarks", int64(len(e.benchmarks))))
	defer sp.End()
	report := &ValidationReport{}
	for _, bench := range e.benchmarks {
		reqs := eval.RequestsFor(configs, bench)
		observed, err := e.SimulateBatch(ctx, reqs)
		if err != nil {
			return nil, err
		}
		pred, err := e.PredictBatch(ctx, reqs)
		if err != nil {
			return nil, err
		}
		be := BenchmarkErrors{
			Benchmark: bench,
			Perf:      make([]float64, 0, n),
			Power:     make([]float64, 0, n),
		}
		for i := range reqs {
			be.Perf = append(be.Perf, stats.RelErr(observed[i].BIPS, pred[i].BIPS))
			be.Power = append(be.Power, stats.RelErr(observed[i].Watts, pred[i].Watts))
		}
		report.PerBenchmark = append(report.PerBenchmark, be)
	}
	return report, nil
}
