package eval

import (
	"fmt"
	"slices"

	"repro/internal/arch"
	"repro/internal/regression"
)

// PairPlan is one benchmark's performance and power models lowered
// against the predictor levels of one design space: both models'
// SweepPlans, evaluated from one shared level vector per design point —
// block-at-a-time by the sweep kernel, one point at a time per request.
// Predictions are bit-identical to the interpreted
// regression.Model.Predict. Immutable and safe for concurrent use.
type PairPlan struct {
	perf, pow *regression.SweepPlan
	// congruent: both plans share column structure (one spec fitted to
	// two responses), so EvalBlock may run the fused pair kernel that
	// loads each level index once for both models.
	congruent bool
	// levels[a][l] is predictor a's value at level l of its axis — the
	// values the tables were built from, which EvalConfig matches a
	// configuration's predictors against.
	levels [][]float64
}

// CompilePair lowers a benchmark's fitted performance and power models
// against the predictor levels of the given design space.
func CompilePair(perf, pow *regression.Model, space *arch.Space) (*PairPlan, error) {
	names := arch.PredictorNames()
	levels := arch.PredictorLevelValues(space)
	perfPlan, err := perf.Compile(names, levels)
	if err != nil {
		return nil, fmt.Errorf("eval: compiling %q model: %w", perf.Response(), err)
	}
	powPlan, err := pow.Compile(names, levels)
	if err != nil {
		return nil, fmt.Errorf("eval: compiling %q model: %w", pow.Response(), err)
	}
	return &PairPlan{perf: perfPlan, pow: powPlan, congruent: perfPlan.Congruent(powPlan), levels: levels}, nil
}

// EvalBlock evaluates both models for len(bips) design points given as
// per-axis level index vectors, writing predicted bips and watts per
// point. Results are bit-identical to EvalPoint point by point.
func (p *PairPlan) EvalBlock(lev [][]int, bips, watts []float64) {
	if p.congruent {
		p.perf.PredictBlockPair(p.pow, lev, bips, watts)
		return
	}
	p.perf.PredictBlock(lev, bips)
	p.pow.PredictBlock(lev, watts)
}

// EvalPoint evaluates both models for a single design point given as
// per-axis level indices.
func (p *PairPlan) EvalPoint(lev []int) (bips, watts float64) {
	return p.perf.PredictLevels(lev), p.pow.PredictLevels(lev)
}

// EvalConfig evaluates both models for a configuration whose seven
// predictor values each equal, exactly, one of the plan's level values;
// ok is false for any other configuration, which the caller evaluates
// on the interpreted models instead. Only the predictors are matched, so
// a grid point with off-grid coupled fields (LSQ, FPR, ...) still
// evaluates here: the models never read those fields.
func (p *PairPlan) EvalConfig(cfg arch.Config) (bips, watts float64, ok bool) {
	var vals [arch.NumAxes]float64
	var lev [arch.NumAxes]int
	for a, v := range arch.PredictorsInto(cfg, vals[:]) {
		l := slices.Index(p.levels[a], v)
		if l < 0 {
			return 0, 0, false
		}
		lev[a] = l
	}
	bips, watts = p.EvalPoint(lev[:])
	return bips, watts, true
}
