// End-to-end reproduction tests: each test asserts one of the paper's
// headline claims against a freshly trained (reduced-budget) pipeline.
// They are the executable form of EXPERIMENTS.md. Run with -short to skip
// the expensive ones.
package repro

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/core/depthstudy"
	"repro/internal/core/heterostudy"
	"repro/internal/core/paretostudy"
	"repro/internal/metrics"
)

// The test fixture trains once with a smaller budget than the bench
// harness so `go test .` stays in tens of seconds.
var (
	claimOnce sync.Once
	claim     struct {
		e   *core.Explorer
		err error
	}
)

func claimExplorer(t *testing.T) *core.Explorer {
	t.Helper()
	if testing.Short() {
		t.Skip("reproduction claims skipped in -short mode")
	}
	claimOnce.Do(func() {
		opts := core.DefaultOptions()
		opts.TrainSamples = 250
		opts.ValidationSamples = 50
		opts.TraceLen = 30000
		e, err := core.New(opts)
		if err != nil {
			claim.err = err
			return
		}
		if err := e.Train(); err != nil {
			claim.err = err
			return
		}
		claim.e = e
	})
	if claim.err != nil {
		t.Fatal(claim.err)
	}
	return claim.e
}

// Claim (Section 3.4): regression models trained on ~1000 random samples
// predict performance and power of unseen designs with single-digit
// median error.
func TestClaimValidationAccuracy(t *testing.T) {
	e := claimExplorer(t)
	rep, err := e.Validate(0)
	if err != nil {
		t.Fatal(err)
	}
	perf, pow := rep.OverallMedians()
	if perf > 0.10 {
		t.Errorf("median performance error %.1f%% exceeds 10%% (paper: 7.2%%)", perf*100)
	}
	if pow > 0.10 {
		t.Errorf("median power error %.1f%% exceeds 10%% (paper: 5.4%%)", pow*100)
	}
}

// Claim (Section 4.3): predictions for pareto optima are no less accurate
// than those for the broader design space.
func TestClaimParetoOptimaAccuracy(t *testing.T) {
	e := claimExplorer(t)
	rep, err := e.Validate(0)
	if err != nil {
		t.Fatal(err)
	}
	randPerf, randPow := rep.OverallMedians()

	results, err := paretostudy.RunSuite(e, paretostudy.Options{
		DelayTargets:     25,
		SimulateFrontier: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	frontPerf, frontPow, ok := paretostudy.ErrorSummary(results)
	if !ok {
		t.Fatal("no frontier errors")
	}
	// "No less accurate" with headroom for sampling noise: within 3x and
	// still single-digit-ish.
	if frontPerf > 3*randPerf+0.05 {
		t.Errorf("frontier perf error %.1f%% out of line with random %.1f%%",
			frontPerf*100, randPerf*100)
	}
	if frontPow > 3*randPow+0.05 {
		t.Errorf("frontier power error %.1f%% out of line with random %.1f%%",
			frontPow*100, randPow*100)
	}
}

// Claim (Table 2): per-benchmark optima are architecturally diverse — the
// memory-bound benchmark picks a larger L2 than the compute-bound one,
// and at least one benchmark goes wide while another stays narrow.
func TestClaimOptimaDiversity(t *testing.T) {
	e := claimExplorer(t)
	optima, err := heterostudy.FindOptima(e)
	if err != nil {
		t.Fatal(err)
	}
	if optima["mcf"].L2KB <= optima["gzip"].L2KB {
		t.Errorf("mcf L2 (%d KB) should exceed gzip's (%d KB)",
			optima["mcf"].L2KB, optima["gzip"].L2KB)
	}
	sawWide, sawNarrow := false, false
	for _, cfg := range optima {
		if cfg.Width == 8 {
			sawWide = true
		}
		if cfg.Width == 2 {
			sawNarrow = true
		}
	}
	if !sawWide || !sawNarrow {
		t.Errorf("optima lack width diversity (wide=%v narrow=%v)", sawWide, sawNarrow)
	}
	if optima["mcf"].Width != 2 {
		t.Errorf("mcf optimum is %d-wide; the paper's is narrow", optima["mcf"].Width)
	}
}

// Claim (Section 5, Figures 5-6): the bips^3/w-optimal pipeline depth is
// interior with a plateau, the models identify the simulator's optimal
// depth to within 3 FO4, and at every depth a sizable fraction of the
// unconstrained space beats the constrained baseline.
func TestClaimDepthStudy(t *testing.T) {
	e := claimExplorer(t)
	results, err := depthstudy.RunSuite(e, depthstudy.Options{SimulateValidation: true})
	if err != nil {
		t.Fatal(err)
	}
	avg, err := depthstudy.Average(results)
	if err != nil {
		t.Fatal(err)
	}
	if avg.BestOriginalDepth <= 12 || avg.BestOriginalDepth >= 30 {
		t.Errorf("optimal depth %d FO4 is at the boundary (paper: 18)", avg.BestOriginalDepth)
	}
	simBest, simVal := 0, -1.0
	for i, v := range avg.OriginalSimRel {
		if v > simVal {
			simVal, simBest = v, avg.Depths[i]
		}
	}
	if d := avg.BestOriginalDepth - simBest; d < -3 || d > 3 {
		t.Errorf("model optimum %d vs simulated %d beyond 3 FO4", avg.BestOriginalDepth, simBest)
	}
	for i, frac := range avg.FracBeatsBaseline {
		if frac < 0.02 {
			t.Errorf("at %d FO4 only %.1f%% of designs beat the baseline", avg.Depths[i], frac*100)
		}
	}
	// Plateau: the second-best depth is within 5% of the best.
	best, second := 0.0, 0.0
	for _, v := range avg.OriginalRel {
		if v > best {
			second = best
			best = v
		} else if v > second {
			second = v
		}
	}
	if second < 0.95*best {
		t.Errorf("no plateau: best %.3f vs second %.3f", best, second)
	}
}

// Claim (Section 6, Figure 9): heterogeneity gains grow with cluster
// count with diminishing returns — K=4 captures most of the K=max bound —
// and the models over-estimate gains relative to simulation while
// preserving the trend.
func TestClaimHeterogeneity(t *testing.T) {
	e := claimExplorer(t)
	res, err := heterostudy.Run(e, nil, heterostudy.Options{
		SimulateValidation: true,
		Seed:               7,
	})
	if err != nil {
		t.Fatal(err)
	}
	k1 := res.Levels[0].AvgModelGain
	k4 := res.Levels[3].AvgModelGain
	kmax := res.Levels[len(res.Levels)-1].AvgModelGain
	if kmax <= 1.05 {
		t.Errorf("heterogeneity bound %.2fx shows no benefit", kmax)
	}
	if k4 < 0.85*kmax {
		t.Errorf("K=4 gain %.2fx captures only %.0f%% of the K=max bound %.2fx (paper: 92%%)",
			k4, 100*k4/kmax, kmax)
	}
	if kmax < k1 {
		t.Errorf("more heterogeneity lowered the bound: K=1 %.2fx vs K=max %.2fx", k1, kmax)
	}
	// Models over-estimate vs simulation at the bound (paper: 2.4x vs 1.7x).
	simMax := res.Levels[len(res.Levels)-1].AvgSimGain
	if simMax <= 0 {
		t.Fatal("no simulated gains")
	}
	if simMax > kmax*1.1 {
		t.Errorf("simulation bound %.2fx above model bound %.2fx; paper found the reverse", simMax, kmax)
	}
}

// Claim (Section 4, footnote 1): exhaustive evaluation of the 262,500-
// point space through the models is computationally trivial compared to
// simulation — here, under a minute rather than simulator-years.
func TestClaimExhaustiveSweepCheap(t *testing.T) {
	e := claimExplorer(t)
	preds, err := e.ExhaustivePredict("twolf")
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 262500 {
		t.Fatalf("sweep covered %d designs", len(preds))
	}
	// And the best design by bips^3/w must be a real, valid configuration.
	best, bestEff := -1, 0.0
	for i, p := range preds {
		if p.BIPS <= 0 || p.Watts <= 0 {
			continue
		}
		if eff := metrics.BIPS3W(p.BIPS, p.Watts); eff > bestEff {
			bestEff, best = eff, i
		}
	}
	if best < 0 {
		t.Fatal("no valid designs in sweep")
	}
	cfg := e.StudySpace.Config(e.StudySpace.PointAt(best))
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}
