// Package search implements heuristic design-space optimization over the
// regression models, the paper's stated future direction ("for larger
// design spaces, we may apply the models in heuristic search instead of
// exhaustive prediction") and its point of comparison with Eyerman et
// al.'s simulation-driven heuristics: because model evaluations cost
// microseconds instead of simulator-hours, even thousands of search steps
// are effectively free, and one trained model serves every optimization
// problem.
//
// The optimizer is steepest-ascent hill climbing with random restarts,
// walking the design space's level grid through single-axis moves.
package search

import (
	"fmt"
	"math"

	"repro/internal/arch"
	"repro/internal/rng"
)

// BatchObjective scores many configurations at once, enabling concurrent
// evaluation: hill climbing submits each step's whole neighborhood as one
// batch (typically to an eval.Engine), so neighbor scoring parallelizes
// across cores. The returned slice must have one score per input, in
// input order.
type BatchObjective func([]arch.Config) ([]float64, error)

// Result reports the outcome of a search.
type Result struct {
	Best      arch.Point
	BestScore float64
	// Evaluations counts objective calls, the search's cost unit.
	Evaluations int
	// Restarts actually performed.
	Iterations int
}

// Options configures the optimizer.
type Options struct {
	// Seed drives all randomness; fixed seed, fixed result.
	Seed uint64
	// Restarts for hill climbing (default 10).
	Restarts int
}

// HillClimbBatch runs steepest-ascent hill climbing with random
// restarts: from a random point, repeatedly move to the best scoring
// neighbor (one level up or down on one axis) until no neighbor
// improves. Each step's full neighborhood (up to two neighbors per axis)
// is scored in one call. With a deterministic objective the walk, and
// therefore the result, does not depend on whatever parallelism the
// batch objective uses underneath.
func HillClimbBatch(space *arch.Space, obj BatchObjective, opts Options) (*Result, error) {
	if space == nil || obj == nil {
		return nil, fmt.Errorf("search: nil space or objective")
	}
	restarts := opts.Restarts
	if restarts <= 0 {
		restarts = 10
	}
	r := rng.New(opts.Seed ^ 0x68696c6c)
	levels := space.Levels()

	res := &Result{BestScore: math.Inf(-1)}
	nbPts := make([]arch.Point, 0, 2*arch.NumAxes)
	nbCfgs := make([]arch.Config, 0, 2*arch.NumAxes)
	for attempt := 0; attempt < restarts; attempt++ {
		cur := randomPoint(space, r)
		scores, err := obj([]arch.Config{space.Config(cur)})
		if err != nil {
			return nil, err
		}
		if len(scores) != 1 {
			return nil, fmt.Errorf("search: objective returned %d scores for 1 config", len(scores))
		}
		curScore := scores[0]
		res.Evaluations++
		for {
			nbPts, nbCfgs = nbPts[:0], nbCfgs[:0]
			for axis := 0; axis < arch.NumAxes; axis++ {
				for _, delta := range [2]int{-1, 1} {
					nb := cur
					nb[axis] += delta
					if nb[axis] < 0 || nb[axis] >= levels[axis] {
						continue
					}
					nbPts = append(nbPts, nb)
					nbCfgs = append(nbCfgs, space.Config(nb))
				}
			}
			scores, err := obj(nbCfgs)
			if err != nil {
				return nil, err
			}
			if len(scores) != len(nbCfgs) {
				return nil, fmt.Errorf("search: objective returned %d scores for %d configs",
					len(scores), len(nbCfgs))
			}
			res.Evaluations += len(nbCfgs)
			improved := false
			bestNb := cur
			bestScore := curScore
			for i, s := range scores {
				if s > bestScore {
					bestScore, bestNb = s, nbPts[i]
					improved = true
				}
			}
			if !improved {
				break
			}
			cur, curScore = bestNb, bestScore
		}
		res.Iterations++
		if curScore > res.BestScore {
			res.BestScore, res.Best = curScore, cur
		}
	}
	return res, nil
}

func randomPoint(space *arch.Space, r *rng.Source) arch.Point {
	levels := space.Levels()
	var p arch.Point
	for a := 0; a < arch.NumAxes; a++ {
		p[a] = r.Intn(levels[a])
	}
	return p
}
