// Package depthstudy implements Section 5 of the paper: the constrained
// "original" pipeline-depth analysis (all non-depth parameters held at
// the POWER4-like baseline) versus the "enhanced" analysis in which the
// regression models evaluate all 37,500 designs at each of the seven
// depths. It produces the data behind Figures 5(a), 5(b), 6 and 7.
package depthstudy

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Options tunes the study.
type Options struct {
	// SimulateValidation re-runs the original sweep and each depth's
	// predicted-best design in the detailed simulator (Figures 6-7).
	SimulateValidation bool
	// TopPercentile is the quantile cut for the cache-distribution
	// analysis of Figure 5(b); zero means 0.95 (the paper's 95th
	// percentile).
	TopPercentile float64
}

// DepthRow summarizes one pipeline depth.
type DepthRow struct {
	DepthFO4 int

	// Original analysis: the baseline design at this depth.
	OriginalModelBIPS  float64
	OriginalModelWatts float64
	OriginalModelEff   float64 // bips^3/w
	OriginalSimEff     float64 // zero unless validated
	OriginalSimBIPS    float64
	OriginalSimWatts   float64

	// Enhanced analysis: the distribution of predicted bips^3/w over all
	// 37,500 designs at this depth, expressed relative to the original
	// analysis' best depth (the paper's Figure 5a normalization).
	EffBox stats.Boxplot

	// Bound architecture: the design predicted most efficient at this
	// depth (the boxplot maximum).
	BoundConfig     arch.Config
	BoundModelEff   float64
	BoundSimEff     float64 // zero unless validated
	BoundSimBIPS    float64
	BoundSimWatts   float64
	BoundModelBIPS  float64
	BoundModelWatts float64

	// FracBeatsBaseline is the fraction of designs at this depth
	// predicted more efficient than the original bips^3/w optimum.
	FracBeatsBaseline float64

	// DL1Histogram counts D-L1 cache sizes among the top designs at this
	// depth (Figure 5b): DL1Histogram[sizeKB] = fraction of top designs.
	DL1Histogram map[int]float64
}

// Result is the full study output for one benchmark (or the suite
// average; see RunAverage).
type Result struct {
	Benchmark string
	Rows      []DepthRow // ascending FO4 (deepest pipeline first)

	// OriginalBestDepth is the FO4 with maximal original-analysis
	// predicted efficiency; all relative numbers are normalized to it.
	OriginalBestDepth int
	OriginalBestEff   float64

	// BoundBestDepth is the FO4 whose bound architecture is predicted
	// most efficient.
	BoundBestDepth int
}

// Run executes the depth study for one benchmark.
func Run(e *core.Explorer, bench string, opts Options) (*Result, error) {
	sp := obs.Begin("study.depth", obs.String("bench", bench))
	defer sp.End()
	if opts.TopPercentile == 0 {
		opts.TopPercentile = 0.95
	}
	if opts.TopPercentile <= 0 || opts.TopPercentile >= 1 {
		return nil, fmt.Errorf("depthstudy: TopPercentile %v out of (0,1)", opts.TopPercentile)
	}
	space := e.StudySpace
	depths := space.DepthLevels()

	// --- Original analysis: baseline parameters, sweep depth. ---
	baseCfgs := make([]arch.Config, len(depths))
	origEff := make([]float64, len(depths))
	origBIPS := make([]float64, len(depths))
	origWatts := make([]float64, len(depths))
	base := arch.Baseline()
	for i, d := range depths {
		cfg := base
		cfg.DepthFO4 = d
		baseCfgs[i] = cfg
	}
	origPreds, err := e.PredictBatch(context.Background(), eval.RequestsFor(baseCfgs, bench))
	if err != nil {
		return nil, err
	}
	for i, d := range depths {
		b, w := origPreds[i].BIPS, origPreds[i].Watts
		if b <= 0 || w <= 0 {
			return nil, fmt.Errorf("depthstudy: non-positive prediction at %d FO4", d)
		}
		origBIPS[i], origWatts[i] = b, w
		origEff[i] = metrics.BIPS3W(b, w)
	}
	bestIdx := argmax(origEff)
	res := &Result{
		Benchmark:         bench,
		OriginalBestDepth: depths[bestIdx],
		OriginalBestEff:   origEff[bestIdx],
	}

	// --- Enhanced analysis: full space grouped by depth. ---
	preds, err := e.ExhaustivePredict(bench)
	if err != nil {
		return nil, err
	}
	var scratch blockScratch
	for di, d := range depths {
		// Depth is the most significant axis of the flat order, so each
		// depth's designs occupy one contiguous block of the sweep.
		lo, hi := space.DepthBlock(di)
		row := DepthRow{
			DepthFO4:           d,
			OriginalModelBIPS:  origBIPS[di],
			OriginalModelWatts: origWatts[di],
			OriginalModelEff:   origEff[di],
		}
		if err := analyzeBlock(&row, space, lo, preds[lo:hi], res.OriginalBestEff, opts.TopPercentile, &scratch); err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}

	// Bound-architecture optimum across depths.
	bi := 0
	for i, r := range res.Rows {
		if r.BoundModelEff > res.Rows[bi].BoundModelEff {
			bi = i
		}
	}
	res.BoundBestDepth = res.Rows[bi].DepthFO4

	// --- Validation by simulation (Figures 6-7). ---
	if opts.SimulateValidation {
		// One batch covers every depth's baseline and bound design; the
		// engine runs them concurrently and keeps results in order.
		reqs := make([]eval.Request, 0, 2*len(res.Rows))
		for i := range res.Rows {
			reqs = append(reqs,
				eval.Request{Config: baseCfgs[i], Bench: bench},
				eval.Request{Config: res.Rows[i].BoundConfig, Bench: bench})
		}
		sims, err := e.SimulateBatch(context.Background(), reqs)
		if err != nil {
			return nil, err
		}
		for i := range res.Rows {
			row := &res.Rows[i]
			orig, bound := sims[2*i], sims[2*i+1]
			row.OriginalSimBIPS, row.OriginalSimWatts = orig.BIPS, orig.Watts
			row.OriginalSimEff = metrics.BIPS3W(orig.BIPS, orig.Watts)
			row.BoundSimBIPS, row.BoundSimWatts = bound.BIPS, bound.Watts
			row.BoundSimEff = metrics.BIPS3W(bound.BIPS, bound.Watts)
		}
	}
	return res, nil
}

// blockScratch is the working storage Run reuses across depth blocks.
type blockScratch struct {
	effs  []float64 // the block's efficiencies, sorted in place
	radix []float64 // radixSort's scratch
}

// analyzeBlock fills the enhanced-analysis fields of row (EffBox, the
// bound design, FracBeatsBaseline and DL1Histogram) from block, one
// depth's designs from the exhaustive sweep; block[i] is the design at
// flat index first+i. Designs with a non-positive prediction are left
// out; a non-finite efficiency is an error. origBest is the original
// analysis' best efficiency, the unit of EffBox.
//
// The block's efficiencies are sorted once. Figure 5(a)'s boxplot is
// taken from the sorted values, and Figure 5(b)'s top designs are those
// above the value at the topPercentile cut, then those tied with it in
// flat-index order until exactly n-cut designs are counted.
func analyzeBlock(row *DepthRow, space *arch.Space, first int, block []core.Prediction, origBest, topPercentile float64, s *blockScratch) error {
	effs := s.effs[:0]
	bound, boundEff, beats := -1, math.Inf(-1), 0
	for i, p := range block {
		if p.BIPS <= 0 || p.Watts <= 0 {
			continue
		}
		eff := metrics.BIPS3W(p.BIPS, p.Watts)
		if math.IsNaN(eff) || math.IsInf(eff, 0) {
			return fmt.Errorf("depthstudy: non-finite efficiency %v at %d FO4 (design %d)", eff, row.DepthFO4, first+i)
		}
		effs = append(effs, eff)
		if eff > boundEff {
			bound, boundEff = i, eff
		}
		if eff > origBest {
			beats++
		}
	}
	s.effs = effs
	if bound < 0 {
		return fmt.Errorf("depthstudy: no valid designs at %d FO4", row.DepthFO4)
	}
	s.radix = radixSort(effs, s.radix)
	n := len(effs)
	cut := int(float64(n) * topPercentile)
	thr := effs[cut]
	ties := 0 // designs tied at thr that fall in the top n-cut
	for j := cut; j < n && effs[j] == thr; j++ {
		ties++
	}

	// Figure 5(a): dividing by a positive constant keeps the order.
	for i := range effs {
		effs[i] /= origBest
	}
	row.EffBox = stats.NewBoxplotSorted(effs)
	row.BoundConfig = space.Config(space.PointAt(first + bound))
	row.BoundModelEff = boundEff
	row.BoundModelBIPS = block[bound].BIPS
	row.BoundModelWatts = block[bound].Watts
	row.FracBeatsBaseline = float64(beats) / float64(n)

	// Figure 5(b): D-L1 size distribution among the top designs.
	hist := make(map[int]float64)
	for i, p := range block {
		if p.BIPS <= 0 || p.Watts <= 0 {
			continue
		}
		eff := metrics.BIPS3W(p.BIPS, p.Watts)
		if eff < thr || eff == thr && ties == 0 {
			continue
		}
		if eff == thr {
			ties--
		}
		hist[space.Config(space.PointAt(first+i)).DL1KB]++
	}
	for k := range hist {
		hist[k] /= float64(n - cut)
	}
	row.DL1Histogram = hist
	return nil
}

// SuiteAverage combines per-benchmark results into the benchmark-average
// view the paper's figures plot: efficiencies are averaged geometrically
// across benchmarks at each depth (ratios compose multiplicatively).
type SuiteAverage struct {
	Depths []int
	// OriginalRel[i] is the original analysis' relative efficiency at
	// Depths[i], normalized to the best original depth (line plot of
	// Figure 5a).
	OriginalRel []float64
	// BoundRel[i] is the bound architectures' relative efficiency,
	// normalized to the best bound depth (the numbers above Figure 5a's
	// boxplots).
	BoundRel []float64
	// MedianRel[i] is the median enhanced-analysis efficiency relative
	// to the original optimum; Q1Rel/Q3Rel are the quartiles (the
	// boxplot boxes of Figure 5a).
	MedianRel []float64
	Q1Rel     []float64
	Q3Rel     []float64
	// MaxRel[i] is the boxplot maximum: the bound architecture's
	// efficiency relative to the original optimum.
	MaxRel []float64
	// FracBeatsBaseline[i] averages the per-benchmark fractions.
	FracBeatsBaseline []float64
	// Simulated counterparts (zero slices when validation was off).
	OriginalSimRel []float64
	BoundSimRel    []float64

	BestOriginalDepth int
	BestBoundDepth    int
}

// Average aggregates per-benchmark depth studies. Benchmarks are taken
// in name order, so the floating-point sums behind each mean, and the
// averages' last bits, do not depend on map iteration order.
func Average(results map[string]*Result) (*SuiteAverage, error) {
	if len(results) == 0 {
		return nil, fmt.Errorf("depthstudy: no results to average")
	}
	benches := make([]string, 0, len(results))
	for b := range results {
		benches = append(benches, b)
	}
	sort.Strings(benches)
	depths := results[benches[0]].depthList()
	nd := len(depths)
	avg := &SuiteAverage{
		Depths:            depths,
		OriginalRel:       make([]float64, nd),
		BoundRel:          make([]float64, nd),
		MedianRel:         make([]float64, nd),
		Q1Rel:             make([]float64, nd),
		Q3Rel:             make([]float64, nd),
		MaxRel:            make([]float64, nd),
		FracBeatsBaseline: make([]float64, nd),
		OriginalSimRel:    make([]float64, nd),
		BoundSimRel:       make([]float64, nd),
	}
	simulated := true
	for di := 0; di < nd; di++ {
		var orig, bound, med, q1, q3, maxRel, frac, origSim, boundSim []float64
		for _, b := range benches {
			r := results[b]
			if len(r.Rows) != nd {
				return nil, fmt.Errorf("depthstudy: inconsistent depth axes")
			}
			row := r.Rows[di]
			orig = append(orig, row.OriginalModelEff/r.OriginalBestEff)
			boundBest := r.boundBestEff()
			bound = append(bound, row.BoundModelEff/boundBest)
			med = append(med, row.EffBox.Med)
			q1 = append(q1, row.EffBox.Q1)
			q3 = append(q3, row.EffBox.Q3)
			maxRel = append(maxRel, row.EffBox.Max)
			frac = append(frac, row.FracBeatsBaseline)
			if row.OriginalSimEff > 0 && row.BoundSimEff > 0 {
				origSim = append(origSim, row.OriginalSimEff)
				boundSim = append(boundSim, row.BoundSimEff)
			} else {
				simulated = false
			}
		}
		avg.OriginalRel[di] = stats.GeoMean(orig)
		avg.BoundRel[di] = stats.GeoMean(bound)
		avg.MedianRel[di] = stats.GeoMean(med)
		avg.Q1Rel[di] = stats.GeoMean(q1)
		avg.Q3Rel[di] = stats.GeoMean(q3)
		avg.MaxRel[di] = stats.GeoMean(maxRel)
		avg.FracBeatsBaseline[di] = stats.Mean(frac)
		if simulated && len(origSim) > 0 {
			avg.OriginalSimRel[di] = stats.GeoMean(origSim)
			avg.BoundSimRel[di] = stats.GeoMean(boundSim)
		}
	}
	// Normalize simulated curves to their own maxima for comparability.
	normalizeToMax(avg.OriginalSimRel)
	normalizeToMax(avg.BoundSimRel)

	avg.BestOriginalDepth = depths[argmax(avg.OriginalRel)]
	avg.BestBoundDepth = depths[argmax(avg.BoundRel)]
	return avg, nil
}

func (r *Result) depthList() []int {
	out := make([]int, len(r.Rows))
	for i, row := range r.Rows {
		out[i] = row.DepthFO4
	}
	return out
}

func (r *Result) boundBestEff() float64 {
	best := math.Inf(-1)
	for _, row := range r.Rows {
		if row.BoundModelEff > best {
			best = row.BoundModelEff
		}
	}
	return best
}

func normalizeToMax(v []float64) {
	var m float64
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	if m <= 0 {
		return
	}
	for i := range v {
		v[i] /= m
	}
}

func argmax(v []float64) int {
	best := 0
	for i, x := range v {
		if x > v[best] {
			best = i
		}
	}
	return best
}

// RunSuite executes the depth study for every modeled benchmark.
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
