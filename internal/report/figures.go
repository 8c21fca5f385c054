package report

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/core/depthstudy"
	"repro/internal/core/heterostudy"
	"repro/internal/core/paretostudy"
	"repro/internal/metrics"
	"repro/internal/stats"
)

// Figure1 renders the validation error distributions (boxplots of
// |obs-pred|/pred for performance and power per benchmark).
func Figure1(rep *core.ValidationReport) string {
	var b strings.Builder
	b.WriteString("Figure 1: prediction error distributions, random validation designs\n")
	b.WriteString("(scale 0% ....................................... 50%)\n")
	render := func(label string, errs []float64) {
		box := stats.NewBoxplot(errs)
		fmt.Fprintf(&b, "  %-12s %s med=%5.1f%%\n", label, RenderBoxplot(box, 0, 0.5, 44), box.Med*100)
	}
	for _, be := range rep.PerBenchmark {
		render(be.Benchmark+" perf", be.Perf)
		render(be.Benchmark+" power", be.Power)
	}
	perf, pow := rep.OverallMedians()
	fmt.Fprintf(&b, "overall median: performance %.1f%%, power %.1f%% (paper: 7.2%%, 5.4%%)\n",
		perf*100, pow*100)
	return b.String()
}

// axisColumn reads one axis's value straight from a flat design index.
// AxisDepth is the most significant digit of arch.Space.FlatIndex, so
// an index's level on an axis is index/stride % levels, where stride is
// the product of the less significant axes' level counts; vals maps each
// level to the Config field the column reports.
type axisColumn struct {
	stride, levels int
	vals           []int
}

func newAxisColumn(space *arch.Space, axis int, field func(arch.Config) int) axisColumn {
	levels := space.Levels()
	col := axisColumn{stride: 1, levels: levels[axis], vals: make([]int, levels[axis])}
	for a := axis + 1; a < arch.NumAxes; a++ {
		col.stride *= levels[a]
	}
	for l := range col.vals {
		var p arch.Point
		p[axis] = l
		col.vals[l] = field(space.Config(p))
	}
	return col
}

func (c axisColumn) level(i int) int { return i / c.stride % c.levels }
func (c axisColumn) value(i int) int { return c.vals[c.level(i)] }

// checkIndex panics, as arch.Space.PointAt does, on an index outside a
// space of the given size, which decoding by stride would wrap silently.
func checkIndex(i, size int) {
	if i < 0 || i >= size {
		panic(fmt.Sprintf("report: design index %d outside space of size %d", i, size))
	}
}

// Figure2 summarizes the exhaustive design-space characterization: the
// scatter's cluster structure as one row per (depth, width) combination
// with delay and power ranges. The full scatter is available through
// Figure2CSV.
func Figure2(space *arch.Space, res *paretostudy.Result) string {
	type agg struct {
		minD, maxD, minP, maxP float64
		n                      int
	}
	depth := newAxisColumn(space, arch.AxisDepth, func(c arch.Config) int { return c.DepthFO4 })
	width := newAxisColumn(space, arch.AxisWidth, func(c arch.Config) int { return c.Width })
	groups := make([][]agg, depth.levels)
	for d := range groups {
		groups[d] = make([]agg, width.levels)
	}
	size := space.Size()
	for _, p := range res.Characterization {
		if p.BIPS <= 0 || p.Watts <= 0 {
			continue
		}
		checkIndex(p.Index, size)
		a := &groups[depth.level(p.Index)][width.level(p.Index)]
		d := metrics.Delay(p.BIPS)
		if a.n == 0 {
			*a = agg{minD: d, maxD: d, minP: p.Watts, maxP: p.Watts, n: 1}
			continue
		}
		if d < a.minD {
			a.minD = d
		}
		if d > a.maxD {
			a.maxD = d
		}
		if p.Watts < a.minP {
			a.minP = p.Watts
		}
		if p.Watts > a.maxP {
			a.maxP = p.Watts
		}
		a.n++
	}
	t := NewTable(
		fmt.Sprintf("Figure 2 (%s): predicted delay-power clusters by depth-width combination", res.Benchmark),
		"depth", "width", "designs", "delay range (s)", "power range (W)")
	// Every axis's values ascend with its level, so level order is
	// (depth, width) order.
	for dl, row := range groups {
		for wl, a := range row {
			if a.n == 0 {
				continue
			}
			t.AddRow(
				fmt.Sprintf("%dFO4", depth.vals[dl]),
				fmt.Sprintf("%d", width.vals[wl]),
				fmt.Sprintf("%d", a.n),
				fmt.Sprintf("%.3f-%.3f", a.minD, a.maxD),
				fmt.Sprintf("%.1f-%.1f", a.minP, a.maxP),
			)
		}
	}
	return t.String()
}

// Figure3 renders the modeled versus simulated pareto frontier.
func Figure3(res *paretostudy.Result) string {
	t := NewTable(
		fmt.Sprintf("Figure 3 (%s): pareto frontier, model vs simulation", res.Benchmark),
		"design", "model delay", "model power", "sim delay", "sim power")
	for _, fp := range res.Frontier {
		simD, simP := "-", "-"
		if fp.SimDelay > 0 {
			simD = fmt.Sprintf("%.3f", fp.SimDelay)
			simP = fmt.Sprintf("%.1f", fp.SimPower)
		}
		t.AddRow(fp.Config.String(),
			fmt.Sprintf("%.3f", fp.ModelDelay),
			fmt.Sprintf("%.1f", fp.ModelPower),
			simD, simP)
	}
	return t.String()
}

// Figure4 renders the frontier prediction-error boxplots.
func Figure4(results map[string]*paretostudy.Result) string {
	var b strings.Builder
	b.WriteString("Figure 4: prediction error for pareto frontier designs\n")
	b.WriteString("(scale 0% ....................................... 50%)\n")
	for _, bench := range sortedKeys(results) {
		r := results[bench]
		if len(r.PerfErrs) == 0 {
			continue
		}
		pb := stats.NewBoxplot(r.PerfErrs)
		wb := stats.NewBoxplot(r.PowerErrs)
		fmt.Fprintf(&b, "  %-12s %s med=%5.1f%%\n", bench+" perf", RenderBoxplot(pb, 0, 0.5, 44), pb.Med*100)
		fmt.Fprintf(&b, "  %-12s %s med=%5.1f%%\n", bench+" power", RenderBoxplot(wb, 0, 0.5, 44), wb.Med*100)
	}
	if perf, pow, ok := paretostudy.ErrorSummary(results); ok {
		fmt.Fprintf(&b, "overall median: performance %.1f%%, power %.1f%% (paper: 8.7%%, 5.5%%)\n",
			perf*100, pow*100)
	}
	return b.String()
}

// Table2 renders the per-benchmark bips^3/w-optimal architectures with
// model predictions and signed errors, the paper's Table 2.
func Table2(results map[string]*paretostudy.Result) string {
	t := NewTable("Table 2: bips^3/w maximizing per-benchmark architectures",
		"bench", "depth", "width", "reg", "resv", "i$", "d$", "l2",
		"delay", "err", "power", "err")
	for _, bench := range sortedKeys(results) {
		o := results[bench].Best
		c := o.Config
		t.AddRow(bench,
			fmt.Sprintf("%d", c.DepthFO4),
			fmt.Sprintf("%d", c.Width),
			fmt.Sprintf("%d", c.GPR),
			fmt.Sprintf("%d", c.ResvBR),
			KB(c.IL1KB), KB(c.DL1KB), KB(c.L2KB),
			fmt.Sprintf("%.3f", o.ModelDelay),
			Pct(o.DelayErr),
			fmt.Sprintf("%.1f", o.ModelPower),
			Pct(o.PowerErr),
		)
	}
	return t.String()
}

// Figure5a renders the original (line) versus enhanced (boxplot) depth
// analyses, relative to the original bips^3/w optimum.
func Figure5a(avg *depthstudy.SuiteAverage) string {
	var b strings.Builder
	b.WriteString("Figure 5a: efficiency vs pipeline depth, original (line) and enhanced (boxes)\n")
	b.WriteString("values relative to the original-analysis optimum\n")
	t := NewTable("", "depth", "original", "q1", "median", "q3", "box max", "bound rel", ">baseline")
	for i, d := range avg.Depths {
		t.AddRow(
			fmt.Sprintf("%dFO4", d),
			fmt.Sprintf("%.3f", avg.OriginalRel[i]),
			fmt.Sprintf("%.3f", avg.Q1Rel[i]),
			fmt.Sprintf("%.3f", avg.MedianRel[i]),
			fmt.Sprintf("%.3f", avg.Q3Rel[i]),
			fmt.Sprintf("%.3f", avg.MaxRel[i]),
			fmt.Sprintf("%.3f", avg.BoundRel[i]),
			Pct(avg.FracBeatsBaseline[i]),
		)
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "optimal depth: original %d FO4, bound architectures %d FO4 (paper: 18, 15-18)\n",
		avg.BestOriginalDepth, avg.BestBoundDepth)
	return b.String()
}

// Figure5b renders the D-L1 size distribution among 95th-percentile
// designs at each depth, averaged across benchmarks.
func Figure5b(results map[string]*depthstudy.Result, space *arch.Space) string {
	sizes := space.DL1Levels()
	headers := []string{"depth"}
	for _, s := range sizes {
		headers = append(headers, KB(s))
	}
	t := NewTable("Figure 5b: D-L1 sizes among top-5% designs per depth (suite average)", headers...)
	benches := sortedKeys(results)
	if len(benches) == 0 {
		return t.String()
	}
	for di, r0 := range results[benches[0]].Rows {
		row := []string{fmt.Sprintf("%dFO4", r0.DepthFO4)}
		for _, s := range sizes {
			var sum float64
			for _, b := range benches {
				sum += results[b].Rows[di].DL1Histogram[s]
			}
			row = append(row, Pct(sum/float64(len(benches))))
		}
		t.AddRow(row...)
	}
	return t.String()
}

// Figure6 renders predicted versus simulated relative efficiency for the
// original and enhanced (bound) analyses.
func Figure6(avg *depthstudy.SuiteAverage) string {
	t := NewTable("Figure 6: predicted vs simulated bips^3/w (relative to each curve's max)",
		"depth", "orig model", "orig sim", "bound model", "bound sim")
	for i, d := range avg.Depths {
		simO, simB := "-", "-"
		if avg.OriginalSimRel[i] > 0 {
			simO = fmt.Sprintf("%.3f", avg.OriginalSimRel[i])
			simB = fmt.Sprintf("%.3f", avg.BoundSimRel[i])
		}
		t.AddRow(
			fmt.Sprintf("%dFO4", d),
			fmt.Sprintf("%.3f", avg.OriginalRel[i]),
			simO,
			fmt.Sprintf("%.3f", avg.BoundRel[i]),
			simB,
		)
	}
	return t.String()
}

// Figure7 decomposes the depth validation into performance and power for
// one benchmark's original and bound designs.
func Figure7(res *depthstudy.Result) string {
	t := NewTable(
		fmt.Sprintf("Figure 7 (%s): performance and power, model vs simulation", res.Benchmark),
		"depth", "orig bips (m/s)", "orig watts (m/s)", "bound bips (m/s)", "bound watts (m/s)")
	for _, row := range res.Rows {
		fmtPair := func(m, s float64) string {
			if s > 0 {
				return fmt.Sprintf("%.2f/%.2f", m, s)
			}
			return fmt.Sprintf("%.2f/-", m)
		}
		t.AddRow(
			fmt.Sprintf("%dFO4", row.DepthFO4),
			fmtPair(row.OriginalModelBIPS, row.OriginalSimBIPS),
			fmtPair(row.OriginalModelWatts, row.OriginalSimWatts),
			fmtPair(row.BoundModelBIPS, row.BoundSimBIPS),
			fmtPair(row.BoundModelWatts, row.BoundSimWatts),
		)
	}
	return t.String()
}

// Table4 renders the K=4 compromise architectures.
func Table4(res *heterostudy.Result) string {
	if len(res.Levels) < 4 {
		return "Table 4: (needs a K=4 clustering)\n"
	}
	lvl := res.Levels[3]
	t := NewTable("Table 4: K=4 compromise architectures",
		"cluster", "depth", "width", "reg", "resv", "i$", "d$", "l2",
		"avg delay", "avg power", "benchmarks")
	for i, comp := range lvl.Compromises {
		c := comp.Config
		t.AddRow(
			fmt.Sprintf("%d", i+1),
			fmt.Sprintf("%d", c.DepthFO4),
			fmt.Sprintf("%d", c.Width),
			fmt.Sprintf("%d", c.GPR),
			fmt.Sprintf("%d", c.ResvBR),
			KB(c.IL1KB), KB(c.DL1KB), KB(c.L2KB),
			fmt.Sprintf("%.3f", comp.AvgDelay),
			fmt.Sprintf("%.1f", comp.AvgPower),
			strings.Join(comp.Benchmarks, ", "),
		)
	}
	return t.String()
}

// Figure8 renders delay-power coordinates of the per-benchmark optima and
// the K=4 compromises.
func Figure8(res *heterostudy.Result) string {
	t := NewTable("Figure 8: delay and power of per-benchmark optima (x) and K=4 compromises (O)",
		"point", "delay (s)", "power (W)", "architecture")
	for _, bench := range sortedKeys(res.Optima) {
		o := res.Optima[bench]
		t.AddRow("x "+bench, fmt.Sprintf("%.3f", o.Delay), fmt.Sprintf("%.1f", o.Power), o.Config.String())
	}
	if len(res.Levels) >= 4 {
		for i, comp := range res.Levels[3].Compromises {
			t.AddRow(
				fmt.Sprintf("O c%d", i+1),
				fmt.Sprintf("%.3f", comp.AvgDelay),
				fmt.Sprintf("%.1f", comp.AvgPower),
				comp.Config.String(),
			)
		}
	}
	return t.String()
}

// Figure9 renders efficiency gains versus cluster count, predicted and
// simulated.
func Figure9(res *heterostudy.Result, benches []string) string {
	headers := []string{"K", "avg model", "avg sim", "silhouette"}
	headers = append(headers, benches...)
	t := NewTable("Figure 9: bips^3/w gains vs degree of heterogeneity (relative to baseline)", headers...)
	baseRow := []string{"0", "1.00", "1.00", "-"}
	for range benches {
		baseRow = append(baseRow, "1.00")
	}
	t.AddRow(baseRow...)
	for _, lvl := range res.Levels {
		row := []string{fmt.Sprintf("%d", lvl.K), fmt.Sprintf("%.2f", lvl.AvgModelGain)}
		if lvl.AvgSimGain > 0 {
			row = append(row, fmt.Sprintf("%.2f", lvl.AvgSimGain))
		} else {
			row = append(row, "-")
		}
		if lvl.K >= 2 {
			row = append(row, fmt.Sprintf("%.2f", lvl.Silhouette))
		} else {
			row = append(row, "-")
		}
		for _, b := range benches {
			row = append(row, fmt.Sprintf("%.2f", lvl.ModelGain[b]))
		}
		t.AddRow(row...)
	}
	return t.String()
}

// sortedKeys returns a map's benchmark names in order, so that output,
// and any sum taken across benchmarks, does not depend on map order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
