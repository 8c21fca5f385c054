package eval

import (
	"fmt"
	"slices"

	"repro/internal/arch"
	"repro/internal/regression"
)

// PairPlan is one benchmark's performance and power models lowered
// against the predictor levels of one design space: both models'
// SweepPlans, evaluated over flat-index ranges of the space by the
// sweep kernel and one point at a time per request. Predictions are
// bit-identical to the interpreted regression.Model.Predict. Immutable
// and safe for concurrent use.
type PairPlan struct {
	perf, pow *regression.SweepPlan
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
	return &PairPlan{perf: perfPlan, pow: powPlan, levels: levels}, nil
}

// SweepRange evaluates both models at the space's flat indices lo,
// lo+1, ..., lo+len(bips)-1 (arch.Space.FlatIndex order), writing
// predicted bips and watts per point; len(watts) must equal len(bips).
// Results are bit-identical to EvalPoint point by point. The models of
// one spec share one fused pass; ranges that start or end inside a
// DL1×L2 plane evaluate those points one at a time.
func (p *PairPlan) SweepRange(lo int, bips, watts []float64) {
	p.perf.SweepRange(p.pow, lo, bips, watts)
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
