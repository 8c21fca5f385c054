// Package stats provides the descriptive statistics used throughout the
// design-space studies: quantiles, boxplot summaries (the paper reports most
// error distributions as boxplots), correlation coefficients, histograms,
// and the relative-error metric |obs - pred| / pred used in model validation.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Quantile returns the p-quantile (0 <= p <= 1) of the data using linear
// interpolation between order statistics (R's default "type 7" definition,
// which is also what the Hmisc utilities the paper relies on use by
// default). The input need not be sorted. Quantile panics on empty data or
// p outside [0, 1].
func Quantile(data []float64, p float64) float64 {
	if len(data) == 0 {
		panic("stats: Quantile of empty data")
	}
	if p < 0 || p > 1 || math.IsNaN(p) {
		panic(fmt.Sprintf("stats: Quantile probability %v out of [0,1]", p))
	}
	sorted := append([]float64(nil), data...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, p)
}

// QuantileSorted is like Quantile but requires data to be sorted ascending,
// avoiding the copy. It panics if the data is empty.
func QuantileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		panic("stats: QuantileSorted of empty data")
	}
	if p < 0 || p > 1 || math.IsNaN(p) {
		panic(fmt.Sprintf("stats: QuantileSorted probability %v out of [0,1]", p))
	}
	return quantileSorted(sorted, p)
}

func quantileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	h := p * float64(n-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= n {
		return sorted[n-1]
	}
	frac := h - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Quantiles evaluates multiple probabilities with a single sort.
func Quantiles(data []float64, ps ...float64) []float64 {
	if len(data) == 0 {
		panic("stats: Quantiles of empty data")
	}
	sorted := append([]float64(nil), data...)
	sort.Float64s(sorted)
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = QuantileSorted(sorted, p)
	}
	return out
}

// Median returns the 0.5 quantile.
func Median(data []float64) float64 { return Quantile(data, 0.5) }

// Mean returns the arithmetic mean. It panics on empty data.
func Mean(data []float64) float64 {
	if len(data) == 0 {
		panic("stats: Mean of empty data")
	}
	var sum float64
	for _, v := range data {
		sum += v
	}
	return sum / float64(len(data))
}

// GeoMean returns the geometric mean of strictly positive data. The paper's
// benchmark-suite averages of multiplicative ratios (relative efficiencies)
// are aggregated geometrically.
func GeoMean(data []float64) float64 {
	if len(data) == 0 {
		panic("stats: GeoMean of empty data")
	}
	var sum float64
	for _, v := range data {
		if v <= 0 {
			panic("stats: GeoMean of non-positive value")
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(data)))
}

// Variance returns the unbiased (n-1 denominator) sample variance.
// It panics if fewer than two observations are supplied.
func Variance(data []float64) float64 {
	if len(data) < 2 {
		panic("stats: Variance needs at least two observations")
	}
	mean := Mean(data)
	var ss float64
	for _, v := range data {
		d := v - mean
		ss += d * d
	}
	return ss / float64(len(data)-1)
}

// StdDev returns the sample standard deviation.
func StdDev(data []float64) float64 { return math.Sqrt(Variance(data)) }

// Min returns the smallest element. It panics on empty data.
func Min(data []float64) float64 {
	if len(data) == 0 {
		panic("stats: Min of empty data")
	}
	m := data[0]
	for _, v := range data[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the largest element. It panics on empty data.
func Max(data []float64) float64 {
	if len(data) == 0 {
		panic("stats: Max of empty data")
	}
	m := data[0]
	for _, v := range data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Boxplot summarizes a distribution the way the paper's figures do:
// median and quartiles, whiskers extending to the most extreme points
// within 1.5 IQR of the quartiles, and everything beyond flagged as an
// outlier.
type Boxplot struct {
	N            int
	Min, Max     float64 // extremes of the data, outliers included
	Q1, Med, Q3  float64
	LoWhisker    float64 // smallest point >= Q1 - 1.5*IQR
	HiWhisker    float64 // largest point <= Q3 + 1.5*IQR
	Outliers     []float64
	Mean, StdDev float64
}

// IQR returns the interquartile range Q3 - Q1.
func (b Boxplot) IQR() float64 { return b.Q3 - b.Q1 }

// NewBoxplot computes the five-number-plus-outliers summary. It panics on
// empty data.
func NewBoxplot(data []float64) Boxplot {
	if len(data) == 0 {
		panic("stats: NewBoxplot of empty data")
	}
	sorted := append([]float64(nil), data...)
	sort.Float64s(sorted)
	return NewBoxplotSorted(sorted)
}

// NewBoxplotSorted is NewBoxplot for data already in ascending order,
// which it neither copies, sorts nor keeps. It panics on empty data.
func NewBoxplotSorted(sorted []float64) Boxplot {
	if len(sorted) == 0 {
		panic("stats: NewBoxplotSorted of empty data")
	}
	b := Boxplot{
		N:    len(sorted),
		Min:  sorted[0],
		Max:  sorted[len(sorted)-1],
		Q1:   QuantileSorted(sorted, 0.25),
		Med:  QuantileSorted(sorted, 0.50),
		Q3:   QuantileSorted(sorted, 0.75),
		Mean: Mean(sorted),
	}
	if len(sorted) > 1 {
		b.StdDev = StdDev(sorted)
	}
	iqr := b.IQR()
	loFence := b.Q1 - 1.5*iqr
	hiFence := b.Q3 + 1.5*iqr
	b.LoWhisker = b.Max
	b.HiWhisker = b.Min
	for _, v := range sorted {
		if v >= loFence && v < b.LoWhisker {
			b.LoWhisker = v
		}
		if v <= hiFence && v > b.HiWhisker {
			b.HiWhisker = v
		}
		if v < loFence || v > hiFence {
			b.Outliers = append(b.Outliers, v)
		}
	}
	return b
}

// Pearson returns the Pearson product-moment correlation between x and y.
// It panics if the lengths differ or fewer than two pairs are supplied, and
// returns NaN if either variable is constant.
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("stats: Pearson length mismatch")
	}
	if len(x) < 2 {
		panic("stats: Pearson needs at least two pairs")
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Spearman returns the Spearman rank correlation, i.e. the Pearson
// correlation of the mid-ranks. Ties receive averaged ranks.
func Spearman(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("stats: Spearman length mismatch")
	}
	return Pearson(Ranks(x), Ranks(y))
}

// Ranks returns 1-based mid-ranks of the data, averaging ties.
func Ranks(data []float64) []float64 {
	n := len(data)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return data[idx[a]] < data[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && data[idx[j+1]] == data[idx[i]] {
			j++
		}
		// Average rank for the tie group [i, j].
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}

// CorrMatrix returns the matrix of pairwise Pearson correlations between
// the given equal-length columns. Entry [i][j] is the correlation of
// columns i and j; the diagonal is 1. Constant columns yield NaN entries.
func CorrMatrix(cols [][]float64) [][]float64 {
	n := len(cols)
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
		out[i][i] = 1
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			r := Pearson(cols[i], cols[j])
			out[i][j] = r
			out[j][i] = r
		}
	}
	return out
}

// RelErr returns the paper's prediction-error metric |obs - pred| / pred.
// The denominator is the prediction, matching Section 3.4. It panics if
// pred is zero.
func RelErr(obs, pred float64) float64 {
	if pred == 0 {
		panic("stats: RelErr with zero prediction")
	}
	return math.Abs(obs-pred) / math.Abs(pred)
}

// SignedRelErr returns (pred - obs) / obs, the signed error used in the
// paper's Table 2 (negative means the model under-predicts).
func SignedRelErr(obs, pred float64) float64 {
	if obs == 0 {
		panic("stats: SignedRelErr with zero observation")
	}
	return (pred - obs) / obs
}

// RelErrs computes RelErr element-wise over two parallel slices.
func RelErrs(obs, pred []float64) []float64 {
	if len(obs) != len(pred) {
		panic("stats: RelErrs length mismatch")
	}
	out := make([]float64, len(obs))
	for i := range obs {
		out[i] = RelErr(obs[i], pred[i])
	}
	return out
}

// Histogram counts data into nbins equal-width bins spanning [min, max].
// Values exactly at max land in the last bin. It panics if nbins < 1 or
// min >= max.
type Histogram struct {
	Min, Max float64
	Counts   []int
}

// NewHistogram builds a histogram of the data.
func NewHistogram(data []float64, nbins int, min, max float64) Histogram {
	if nbins < 1 {
		panic("stats: NewHistogram with nbins < 1")
	}
	if min >= max {
		panic("stats: NewHistogram with min >= max")
	}
	h := Histogram{Min: min, Max: max, Counts: make([]int, nbins)}
	width := (max - min) / float64(nbins)
	for _, v := range data {
		if v < min || v > max {
			continue
		}
		bin := int((v - min) / width)
		if bin >= nbins {
			bin = nbins - 1
		}
		h.Counts[bin]++
	}
	return h
}

// Total returns the number of values counted into the histogram.
func (h Histogram) Total() int {
	var t int
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// Summary holds a compact numeric description of a sample.
type Summary struct {
	N            int
	Mean, StdDev float64
	Min, Q1, Med float64
	Q3, Max      float64
}

// Summarize computes a Summary. It panics on empty data.
func Summarize(data []float64) Summary {
	b := NewBoxplot(data)
	return Summary{
		N: b.N, Mean: b.Mean, StdDev: b.StdDev,
		Min: b.Min, Q1: b.Q1, Med: b.Med, Q3: b.Q3, Max: b.Max,
	}
}

// Normalize rescales data to [0, 1] by min/max. A constant slice maps to
// all zeros. The result is a fresh slice.
func Normalize(data []float64) []float64 {
	if len(data) == 0 {
		return nil
	}
	lo, hi := Min(data), Max(data)
	out := make([]float64, len(data))
	if hi == lo {
		return out
	}
	for i, v := range data {
		out[i] = (v - lo) / (hi - lo)
	}
	return out
}
