// Package paretostudy implements Section 4 of the paper: exhaustive
// regression-based characterization of the design space (Figure 2),
// construction of the predicted pareto frontier in the delay-power plane
// (Figure 3), validation of frontier predictions against simulation
// (Figures 3 and 4), and identification of the bips^3/w-optimal
// architecture per benchmark (Table 2).
package paretostudy

import (
	"context"
	"fmt"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pareto"
	"repro/internal/stats"
)

// Options tunes the study.
type Options struct {
	// DelayTargets is the number of delay bins used to discretize the
	// frontier, per Section 4.2. Zero means 40.
	DelayTargets int
	// SimulateFrontier controls whether frontier designs are re-run in
	// the detailed simulator for validation (Figures 3-4).
	SimulateFrontier bool
}

// FrontierPoint pairs the model's view of a pareto-optimal design with
// its simulated ground truth (when validation ran).
type FrontierPoint struct {
	Index      int // flat index in the study space
	Config     arch.Config
	ModelDelay float64
	ModelPower float64
	SimDelay   float64 // zero unless validated
	SimPower   float64
}

// Optimum is one row of the paper's Table 2: the bips^3/w-maximizing
// design for a benchmark with model predictions and signed errors
// relative to simulation.
type Optimum struct {
	Benchmark  string
	Config     arch.Config
	Point      arch.Point
	ModelDelay float64
	ModelPower float64
	SimDelay   float64
	SimPower   float64
	DelayErr   float64 // (model - sim) / sim, the paper's Table 2 convention
	PowerErr   float64
	ModelEff   float64 // predicted bips^3/w
}

// Result holds the study outputs for one benchmark.
type Result struct {
	Benchmark string

	// Characterization is the full exhaustive prediction (Figure 2's
	// scatter): element i is the design at flat index i.
	Characterization []core.Prediction

	// Frontier is the discretized pareto frontier (Figure 3).
	Frontier []FrontierPoint

	// PerfErrs and PowerErrs are |obs-pred|/pred at frontier points
	// (Figure 4); empty if SimulateFrontier was off.
	PerfErrs, PowerErrs []float64

	// Best is the benchmark's Table 2 row.
	Best Optimum
}

// Run executes the pareto study for one benchmark.
func Run(e *core.Explorer, bench string, opts Options) (*Result, error) {
	sp := obs.Begin("study.pareto", obs.String("bench", bench))
	defer sp.End()
	if opts.DelayTargets <= 0 {
		opts.DelayTargets = 40
	}
	preds, err := e.ExhaustivePredict(bench)
	if err != nil {
		return nil, err
	}
	space := e.StudySpace

	ids, delays, powers := frontierColumns(preds)
	frontier, err := pareto.DiscretizedFrontierColumns(ids, delays, powers, opts.DelayTargets)
	if err != nil {
		return nil, err
	}

	res := &Result{Benchmark: bench, Characterization: preds}
	for _, fp := range frontier {
		cfg := space.Config(space.PointAt(fp.ID))
		res.Frontier = append(res.Frontier, FrontierPoint{
			Index:      fp.ID,
			Config:     cfg,
			ModelDelay: fp.Delay,
			ModelPower: fp.Power,
		})
	}

	if opts.SimulateFrontier && len(res.Frontier) > 0 {
		// Validate the whole frontier as one batch: the simulations run
		// concurrently on the explorer's evaluation engine.
		reqs := make([]eval.Request, len(res.Frontier))
		for i, fp := range res.Frontier {
			reqs[i] = eval.Request{Config: fp.Config, Bench: bench}
		}
		sims, err := e.SimulateBatch(context.Background(), reqs)
		if err != nil {
			return nil, err
		}
		for i := range res.Frontier {
			fp := &res.Frontier[i]
			fp.SimDelay = metrics.Delay(sims[i].BIPS)
			fp.SimPower = sims[i].Watts
			res.PerfErrs = append(res.PerfErrs, stats.RelErr(fp.SimDelay, fp.ModelDelay))
			res.PowerErrs = append(res.PowerErrs, stats.RelErr(fp.SimPower, fp.ModelPower))
		}
	}

	best, err := findOptimum(e, bench, preds)
	if err != nil {
		return nil, err
	}
	res.Best = *best
	return res, nil
}

// frontierColumns returns the delay-power cloud as columns: the
// physical designs (positive bips and watts, as Figure 2, the depth
// study and dsed's pareto view require) in index order, a design's id
// being its position in preds.
func frontierColumns(preds []core.Prediction) (ids []int, delays, powers []float64) {
	ids = make([]int, 0, len(preds))
	delays = make([]float64, 0, len(preds))
	powers = make([]float64, 0, len(preds))
	for i, p := range preds {
		if p.BIPS <= 0 || p.Watts <= 0 {
			continue
		}
		ids = append(ids, i)
		delays = append(delays, metrics.Delay(p.BIPS))
		powers = append(powers, p.Watts)
	}
	return ids, delays, powers
}

// findOptimum locates the predicted bips^3/w-maximizing design and
// simulates it for the Table 2 error columns.
func findOptimum(e *core.Explorer, bench string, preds []core.Prediction) (*Optimum, error) {
	space := e.StudySpace
	bestIdx, bestEff := core.BestEfficiency(preds)
	if bestIdx < 0 {
		return nil, fmt.Errorf("paretostudy: no valid predictions for %s", bench)
	}
	pt := space.PointAt(bestIdx)
	cfg := space.Config(pt)
	o := &Optimum{
		Benchmark:  bench,
		Config:     cfg,
		Point:      pt,
		ModelDelay: metrics.Delay(preds[bestIdx].BIPS),
		ModelPower: preds[bestIdx].Watts,
		ModelEff:   bestEff,
	}
	bips, watts, err := e.Simulate(cfg, bench)
	if err != nil {
		return nil, err
	}
	o.SimDelay = metrics.Delay(bips)
	o.SimPower = watts
	o.DelayErr = stats.SignedRelErr(o.SimDelay, o.ModelDelay)
	o.PowerErr = stats.SignedRelErr(o.SimPower, o.ModelPower)
	return o, nil
}

// RunSuite executes the study for every benchmark the explorer models.
func RunSuite(e *core.Explorer, opts Options) (map[string]*Result, error) {
	out := make(map[string]*Result)
	for _, bench := range e.Benchmarks() {
		r, err := Run(e, bench, opts)
		if err != nil {
			return nil, err
		}
		out[bench] = r
	}
	return out, nil
}

// ErrorSummary aggregates the frontier validation errors across
// benchmarks: the overall medians quoted in Section 4.3.
func ErrorSummary(results map[string]*Result) (perfMedian, powerMedian float64, ok bool) {
	var perf, power []float64
	for _, r := range results {
		perf = append(perf, r.PerfErrs...)
		power = append(power, r.PowerErrs...)
	}
	if len(perf) == 0 || len(power) == 0 {
		return 0, 0, false
	}
	return stats.Median(perf), stats.Median(power), true
}
