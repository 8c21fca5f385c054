package report

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/core/depthstudy"
	"repro/internal/core/heterostudy"
	"repro/internal/core/paretostudy"
	"repro/internal/metrics"
	"repro/internal/stats"
)

// Synthetic study fixtures small enough to assert against exactly.

func sampleParetoResult() *paretostudy.Result {
	space := arch.ExplorationSpace()
	cfgA := space.Config(arch.Point{0, 0, 0, 0, 0, 0, 0})
	cfgB := space.Config(arch.Point{6, 2, 9, 9, 4, 4, 4})
	// One prediction per design; all but two are zero, so invalid.
	preds := make([]core.Prediction, space.Size())
	preds[0] = core.Prediction{BIPS: 1.0, Watts: 20}
	preds[space.FlatIndex(arch.Point{6, 2, 9, 9, 4, 4, 4})] = core.Prediction{BIPS: 0.5, Watts: 60}
	preds[1] = core.Prediction{BIPS: -1, Watts: 0} // invalid: must be skipped
	return &paretostudy.Result{
		Benchmark:        "gzip",
		Characterization: preds,
		Frontier: []paretostudy.FrontierPoint{
			{Index: 0, Config: cfgA, ModelDelay: 0.10, ModelPower: 20, SimDelay: 0.11, SimPower: 19},
			{Index: 1, Config: cfgB, ModelDelay: 0.20, ModelPower: 10},
		},
		PerfErrs:  []float64{0.05, 0.07},
		PowerErrs: []float64{0.02, 0.03},
		Best: paretostudy.Optimum{
			Benchmark:  "gzip",
			Config:     cfgA,
			ModelDelay: 0.1, ModelPower: 20,
			SimDelay: 0.11, SimPower: 19,
			DelayErr: -0.09, PowerErr: 0.05,
		},
	}
}

func sampleDepthResult() (*depthstudy.Result, *depthstudy.SuiteAverage) {
	box := stats.NewBoxplot([]float64{0.5, 0.8, 1.0, 1.2, 1.5})
	res := &depthstudy.Result{
		Benchmark:         "gzip",
		OriginalBestDepth: 18,
		OriginalBestEff:   1,
	}
	for _, d := range []int{12, 15, 18, 21, 24, 27, 30} {
		res.Rows = append(res.Rows, depthstudy.DepthRow{
			DepthFO4:          d,
			OriginalModelBIPS: 1, OriginalModelWatts: 20, OriginalModelEff: 0.9,
			OriginalSimBIPS: 1.1, OriginalSimWatts: 21, OriginalSimEff: 0.95,
			EffBox:        box,
			BoundModelEff: 1.2, BoundModelBIPS: 1.3, BoundModelWatts: 25,
			BoundSimEff: 1.1, BoundSimBIPS: 1.25, BoundSimWatts: 26,
			FracBeatsBaseline: 0.4,
			DL1Histogram:      map[int]float64{8: 0.2, 16: 0.2, 32: 0.2, 64: 0.2, 128: 0.2},
			BoundConfig:       arch.Baseline(),
		})
	}
	avg, err := depthstudy.Average(map[string]*depthstudy.Result{"gzip": res})
	if err != nil {
		panic(err)
	}
	return res, avg
}

func sampleHeteroResult() *heterostudy.Result {
	base := arch.Baseline()
	res := &heterostudy.Result{
		Optima: map[string]heterostudy.OptimumPoint{
			"gzip": {Config: base, Delay: 0.1, Power: 20, Eff: 0.5},
			"mcf":  {Config: base, Delay: 0.5, Power: 10, Eff: 0.01},
		},
		BaselineModelEff: map[string]float64{"gzip": 0.3, "mcf": 0.008},
	}
	for k := 1; k <= 4; k++ {
		lvl := heterostudy.ClusterLevel{
			K:            k,
			Compromises:  []heterostudy.Compromise{{Config: base, Benchmarks: []string{"gzip", "mcf"}, AvgDelay: 0.3, AvgPower: 15}},
			Assign:       map[string]int{"gzip": 0, "mcf": 0},
			ModelGain:    map[string]float64{"gzip": 1.5, "mcf": 0.9},
			SimGain:      map[string]float64{"gzip": 1.3, "mcf": 0.95},
			AvgModelGain: 1.2,
			AvgSimGain:   1.1,
			Silhouette:   0.42,
		}
		res.Levels = append(res.Levels, lvl)
	}
	return res
}

func TestFigure2Renders(t *testing.T) {
	s := Figure2(arch.ExplorationSpace(), sampleParetoResult())
	for _, want := range []string{"Figure 2 (gzip)", "12FO4", "30FO4", "delay range"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q:\n%s", want, s)
		}
	}
	// The invalid prediction must not create extra groups: only two rows.
	if got := strings.Count(s, "FO4"); got != 2 {
		t.Fatalf("expected 2 cluster rows, found %d", got)
	}
}

// refFigure2 is the oracle for Figure2: it groups the points in a map
// keyed by the configuration PointAt resolves and sorts the keys.
func refFigure2(space *arch.Space, res *paretostudy.Result) string {
	type key struct{ depth, width int }
	type agg struct {
		minD, maxD, minP, maxP float64
		n                      int
	}
	groups := make(map[key]*agg)
	for i, p := range res.Characterization {
		if p.BIPS <= 0 || p.Watts <= 0 {
			continue
		}
		cfg := space.Config(space.PointAt(i))
		k := key{cfg.DepthFO4, cfg.Width}
		d := metrics.Delay(p.BIPS)
		a, ok := groups[k]
		if !ok {
			groups[k] = &agg{minD: d, maxD: d, minP: p.Watts, maxP: p.Watts, n: 1}
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
	keys := make([]key, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].depth != keys[j].depth {
			return keys[i].depth < keys[j].depth
		}
		return keys[i].width < keys[j].width
	})
	t := NewTable(
		fmt.Sprintf("Figure 2 (%s): predicted delay-power clusters by depth-width combination", res.Benchmark),
		"depth", "width", "designs", "delay range (s)", "power range (W)")
	for _, k := range keys {
		a := groups[k]
		t.AddRow(fmt.Sprintf("%dFO4", k.depth), fmt.Sprintf("%d", k.width), fmt.Sprintf("%d", a.n),
			fmt.Sprintf("%.3f-%.3f", a.minD, a.maxD), fmt.Sprintf("%.1f-%.1f", a.minP, a.maxP))
	}
	return t.String()
}

func TestFigure2MatchesReference(t *testing.T) {
	space, full := boundaryCharacterization()
	// sparse keeps every 7919th valid prediction of full, counted from
	// the last design, and marks the rest invalid.
	sparse := &paretostudy.Result{Benchmark: "mcf", Characterization: make([]core.Prediction, len(full.Characterization))}
	for i := len(full.Characterization) - 1; i >= 0; i -= 7919 {
		sparse.Characterization[i] = full.Characterization[i]
	}
	for _, res := range []*paretostudy.Result{full, sparse, sampleParetoResult()} {
		if got, want := Figure2(space, res), refFigure2(space, res); got != want {
			t.Fatalf("%s, %d points: Figure2 differs from the reference:\n%s\nwant:\n%s",
				res.Benchmark, len(res.Characterization), got, want)
		}
	}
}

func TestFigure3Renders(t *testing.T) {
	s := Figure3(sampleParetoResult())
	if !strings.Contains(s, "0.110") { // simulated delay present
		t.Fatalf("simulated columns missing:\n%s", s)
	}
	if !strings.Contains(s, "-") { // unvalidated point renders dashes
		t.Fatalf("placeholder for missing sim values absent:\n%s", s)
	}
}

func TestFigure4RendersAndSummarizes(t *testing.T) {
	results := map[string]*paretostudy.Result{"gzip": sampleParetoResult()}
	s := Figure4(results)
	for _, want := range []string{"Figure 4", "gzip perf", "gzip power", "overall median"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q:\n%s", want, s)
		}
	}
}

func TestTable2Renders(t *testing.T) {
	results := map[string]*paretostudy.Result{"gzip": sampleParetoResult()}
	s := Table2(results)
	for _, want := range []string{"Table 2", "gzip", "-9.0%", "5.0%"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q:\n%s", want, s)
		}
	}
}

func TestFigure5aRenders(t *testing.T) {
	_, avg := sampleDepthResult()
	s := Figure5a(avg)
	for _, want := range []string{"Figure 5a", "12FO4", "optimal depth", "40.0%"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q:\n%s", want, s)
		}
	}
}

func TestFigure5bRenders(t *testing.T) {
	res, _ := sampleDepthResult()
	s := Figure5b(map[string]*depthstudy.Result{"gzip": res}, arch.ExplorationSpace())
	for _, want := range []string{"Figure 5b", "8KB", "128KB", "20.0%"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q:\n%s", want, s)
		}
	}
}

func TestFigure5bIndependentOfMapOrder(t *testing.T) {
	// The three benchmarks' 8 KB fractions have a mean whose rounding to
	// 0.1% depends on the order they are added in: 30.9% one way, 31.0%
	// another.
	var suite []*depthstudy.Result
	for i, frac := range []float64{0.105, 0.4551, 0.3684} {
		res := &depthstudy.Result{Benchmark: []string{"gzip", "mcf", "mesa"}[i]}
		for _, d := range []int{12, 15, 18} {
			res.Rows = append(res.Rows, depthstudy.DepthRow{
				DepthFO4:     d,
				DL1Histogram: map[int]float64{8: frac, 16: 1 - frac},
			})
		}
		suite = append(suite, res)
	}
	space := arch.ExplorationSpace()
	var first string
	for i := 0; i < 50; i++ {
		// A fresh map each time, filled in a rotated order, so Go's
		// randomized iteration order differs between calls.
		results := make(map[string]*depthstudy.Result, len(suite))
		for j := range suite {
			r := suite[(i+j)%len(suite)]
			results[r.Benchmark] = r
		}
		s := Figure5b(results, space)
		if i == 0 {
			first = s
			continue
		}
		if s != first {
			t.Fatalf("call %d:\n%s\nfirst call gave:\n%s", i, s, first)
		}
	}
	for _, want := range []string{"12FO4", "18FO4"} {
		if !strings.Contains(first, want) {
			t.Fatalf("missing %q:\n%s", want, first)
		}
	}
}

func TestFigure6And7Render(t *testing.T) {
	res, avg := sampleDepthResult()
	s6 := Figure6(avg)
	if !strings.Contains(s6, "orig sim") || !strings.Contains(s6, "bound sim") {
		t.Fatalf("Figure6 incomplete:\n%s", s6)
	}
	s7 := Figure7(res)
	if !strings.Contains(s7, "Figure 7 (gzip)") || !strings.Contains(s7, "1.00/1.10") {
		t.Fatalf("Figure7 incomplete:\n%s", s7)
	}
}

func TestTable4AndFigure8Render(t *testing.T) {
	res := sampleHeteroResult()
	s4 := Table4(res)
	for _, want := range []string{"Table 4", "gzip, mcf", "19"} {
		if !strings.Contains(s4, want) {
			t.Fatalf("Table4 missing %q:\n%s", want, s4)
		}
	}
	s8 := Figure8(res)
	for _, want := range []string{"Figure 8", "x gzip", "x mcf", "O c1"} {
		if !strings.Contains(s8, want) {
			t.Fatalf("Figure8 missing %q:\n%s", want, s8)
		}
	}
}

func TestTable4NeedsFourLevels(t *testing.T) {
	res := sampleHeteroResult()
	res.Levels = res.Levels[:2]
	if !strings.Contains(Table4(res), "needs a K=4") {
		t.Fatal("short sweep should render a placeholder")
	}
}

func TestFigure9Renders(t *testing.T) {
	res := sampleHeteroResult()
	s := Figure9(res, []string{"gzip", "mcf"})
	for _, want := range []string{"Figure 9", "silhouette", "0.42", "1.20", "0.90"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q:\n%s", want, s)
		}
	}
	// Cluster count 0 row must be present.
	if !strings.Contains(s, "\n0  ") {
		t.Fatalf("baseline row missing:\n%s", s)
	}
}

func TestCSVEmitters(t *testing.T) {
	res := sampleParetoResult()
	var buf bytes.Buffer
	if err := Figure2CSV(&buf, arch.ExplorationSpace(), res); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 3 { // header + 2 valid rows
		t.Fatalf("figure2 csv has %d lines", lines)
	}
	buf.Reset()
	if err := Figure3CSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "model_delay_s") {
		t.Fatal("figure3 csv missing header")
	}
	buf.Reset()
	if err := Table2CSV(&buf, map[string]*paretostudy.Result{"gzip": res}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "gzip") {
		t.Fatal("table2 csv missing row")
	}
	buf.Reset()
	_, avg := sampleDepthResult()
	if err := Figure5aCSV(&buf, avg); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 8 { // header + 7 depths
		t.Fatalf("figure5a csv has %d lines", lines)
	}
	buf.Reset()
	if err := Figure9CSV(&buf, sampleHeteroResult(), []string{"gzip", "mcf"}); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 6 { // header + K=0..4
		t.Fatalf("figure9 csv has %d lines", lines)
	}
	buf.Reset()
	rep := &core.ValidationReport{PerBenchmark: []core.BenchmarkErrors{
		{Benchmark: "gzip", Perf: []float64{0.1}, Power: []float64{0.2}},
	}}
	if err := Figure1CSV(&buf, rep); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 3 {
		t.Fatalf("figure1 csv has %d lines", lines)
	}
}
