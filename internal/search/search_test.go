package search

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/arch"
)

// smoothObjective is a concave function of the predictors with a unique
// interior optimum, easy for local search.
func smoothObjective(c arch.Config) float64 {
	d := float64(c.DepthFO4) - 18
	w := float64(c.Width) - 4
	g := float64(c.GPR) - 90
	l := math.Log2(float64(c.L2KB)) - 10
	return 100 - d*d/4 - w*w - g*g/100 - l*l
}

// sequential scores smoothObjective over a batch one config at a time.
func sequential(cfgs []arch.Config) ([]float64, error) {
	out := make([]float64, len(cfgs))
	for i, cfg := range cfgs {
		out[i] = smoothObjective(cfg)
	}
	return out, nil
}

func TestHillClimbFindsSmoothOptimum(t *testing.T) {
	space := arch.ExplorationSpace()
	res, err := HillClimbBatch(space, sequential, Options{Seed: 1, Restarts: 5})
	if err != nil {
		t.Fatal(err)
	}
	cfg := space.Config(res.Best)
	if cfg.DepthFO4 != 18 || cfg.Width != 4 || cfg.GPR != 90 || cfg.L2KB != 1024 {
		t.Fatalf("hill climb found %v, want depth 18 width 4 gpr 90 l2 1MB", cfg)
	}
	if res.Evaluations >= space.Size()/10 {
		t.Fatalf("search used %d evaluations; exhaustive would use %d", res.Evaluations, space.Size())
	}
}

func TestSearchMatchesExhaustiveOnSmooth(t *testing.T) {
	space := arch.ExplorationSpace()
	// Exhaustive ground truth.
	bestScore := math.Inf(-1)
	for i := 0; i < space.Size(); i += 7 { // stride keeps the test fast
		s := smoothObjective(space.Config(space.PointAt(i)))
		if s > bestScore {
			bestScore = s
		}
	}
	res, err := HillClimbBatch(space, sequential, Options{Seed: 3, Restarts: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestScore < bestScore {
		t.Fatalf("hill climb %v below strided exhaustive %v", res.BestScore, bestScore)
	}
}

func TestSearchDeterministic(t *testing.T) {
	space := arch.ExplorationSpace()
	a, err := HillClimbBatch(space, sequential, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := HillClimbBatch(space, sequential, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if a.Best != b.Best || a.Evaluations != b.Evaluations {
		t.Fatal("same seed produced different searches")
	}
}

// TestHillClimbBatchMatchesScalar pins the equivalence contract: a batch
// objective that scores each config on its own goroutine must walk
// exactly the same path, batch for batch, as a sequential one.
func TestHillClimbBatchMatchesScalar(t *testing.T) {
	space := arch.ExplorationSpace()
	var seqWalk [][]arch.Config
	seq, err := HillClimbBatch(space, func(cfgs []arch.Config) ([]float64, error) {
		seqWalk = append(seqWalk, append([]arch.Config(nil), cfgs...))
		return sequential(cfgs)
	}, Options{Seed: 4, Restarts: 6})
	if err != nil {
		t.Fatal(err)
	}
	var conWalk [][]arch.Config
	var scored int
	con, err := HillClimbBatch(space, func(cfgs []arch.Config) ([]float64, error) {
		conWalk = append(conWalk, append([]arch.Config(nil), cfgs...))
		scored += len(cfgs)
		out := make([]float64, len(cfgs))
		var wg sync.WaitGroup
		for i, cfg := range cfgs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out[i] = smoothObjective(cfg)
			}()
		}
		wg.Wait()
		return out, nil
	}, Options{Seed: 4, Restarts: 6})
	if err != nil {
		t.Fatal(err)
	}
	if *seq != *con {
		t.Fatalf("concurrent walk diverged: sequential %+v, concurrent %+v", seq, con)
	}
	if !reflect.DeepEqual(seqWalk, conWalk) {
		t.Fatal("concurrent objective was asked for different batches than the sequential one")
	}
	if scored != con.Evaluations {
		t.Fatalf("objective scored %d configs, result reports %d", scored, con.Evaluations)
	}
	// Neighborhoods batch up to 2*NumAxes configs per call, so the walk
	// needs far fewer calls than evaluations.
	if len(conWalk) >= scored {
		t.Fatalf("batching degenerated to scalar calls: %d batches for %d scores", len(conWalk), scored)
	}
}

func TestHillClimbBatchPropagatesObjectiveError(t *testing.T) {
	space := arch.ExplorationSpace()
	wantErr := "objective exploded"
	_, err := HillClimbBatch(space, func(cfgs []arch.Config) ([]float64, error) {
		return nil, errors.New(wantErr)
	}, Options{Seed: 1, Restarts: 1})
	if err == nil || !strings.Contains(err.Error(), wantErr) {
		t.Fatalf("err = %v, want objective error", err)
	}
	_, err = HillClimbBatch(space, func(cfgs []arch.Config) ([]float64, error) {
		return make([]float64, len(cfgs)+1), nil
	}, Options{Seed: 1, Restarts: 1})
	if err == nil || !strings.Contains(err.Error(), "scores") {
		t.Fatalf("err = %v, want score-count mismatch error", err)
	}
}

func TestSearchErrors(t *testing.T) {
	if _, err := HillClimbBatch(nil, sequential, Options{}); err == nil {
		t.Fatal("nil space accepted")
	}
	if _, err := HillClimbBatch(arch.ExplorationSpace(), nil, Options{}); err == nil {
		t.Fatal("nil objective accepted")
	}
}

// Property: returned points are always inside the space and the reported
// score matches re-evaluating the objective.
func TestQuickSearchInvariants(t *testing.T) {
	space := arch.ExplorationSpace()
	f := func(seed uint64) bool {
		hc, err := HillClimbBatch(space, sequential, Options{Seed: seed, Restarts: 2})
		if err != nil || !space.Contains(hc.Best) {
			return false
		}
		return smoothObjective(space.Config(hc.Best)) == hc.BestScore
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: hill climbing never returns a point with a strictly better
// immediate neighbor (it is a genuine local optimum).
func TestQuickHillClimbLocalOptimality(t *testing.T) {
	space := arch.ExplorationSpace()
	levels := space.Levels()
	f := func(seed uint64) bool {
		res, err := HillClimbBatch(space, sequential, Options{Seed: seed, Restarts: 1})
		if err != nil {
			return false
		}
		for axis := 0; axis < arch.NumAxes; axis++ {
			for _, delta := range [2]int{-1, 1} {
				nb := res.Best
				nb[axis] += delta
				if nb[axis] < 0 || nb[axis] >= levels[axis] {
					continue
				}
				if smoothObjective(space.Config(nb)) > res.BestScore {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkHillClimb(b *testing.B) {
	space := arch.ExplorationSpace()
	for i := 0; i < b.N; i++ {
		if _, err := HillClimbBatch(space, sequential, Options{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
