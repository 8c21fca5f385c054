package report

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/core/depthstudy"
	"repro/internal/core/heterostudy"
	"repro/internal/core/paretostudy"
	"repro/internal/metrics"
)

// The reference emitters below are the oracle for the streamed ones:
// they build every row as []string cells formatted with fmt's %g and
// write them one cell at a time, as the emitters did before they
// streamed.

func refF(v float64) string { return fmt.Sprintf("%g", v) }

func refWriteCSV(w io.Writer, headers []string, rows [][]string) error {
	writeLine := func(cells []string) error {
		for i, c := range cells {
			if i > 0 {
				if _, err := io.WriteString(w, ","); err != nil {
					return err
				}
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			if _, err := io.WriteString(w, c); err != nil {
				return err
			}
		}
		_, err := io.WriteString(w, "\n")
		return err
	}
	if err := writeLine(headers); err != nil {
		return err
	}
	for _, row := range rows {
		if err := writeLine(row); err != nil {
			return err
		}
	}
	return nil
}

func refFigure1CSV(w io.Writer, rep *core.ValidationReport) error {
	var rows [][]string
	for _, be := range rep.PerBenchmark {
		for _, v := range be.Perf {
			rows = append(rows, []string{be.Benchmark, "performance", refF(v)})
		}
		for _, v := range be.Power {
			rows = append(rows, []string{be.Benchmark, "power", refF(v)})
		}
	}
	return refWriteCSV(w, []string{"benchmark", "metric", "relative_error"}, rows)
}

func refFigure2CSV(w io.Writer, space *arch.Space, res *paretostudy.Result) error {
	var rows [][]string
	for i, p := range res.Characterization {
		if p.BIPS <= 0 || p.Watts <= 0 {
			continue
		}
		cfg := space.Config(space.PointAt(i))
		rows = append(rows, []string{
			strconv.Itoa(i), refF(metrics.Delay(p.BIPS)), refF(p.Watts),
			strconv.Itoa(cfg.DepthFO4), strconv.Itoa(cfg.Width), strconv.Itoa(cfg.L2KB),
		})
	}
	return refWriteCSV(w, []string{"index", "delay_s", "power_w", "depth_fo4", "width", "l2_kb"}, rows)
}

func refFigure3CSV(w io.Writer, res *paretostudy.Result) error {
	var rows [][]string
	for _, fp := range res.Frontier {
		rows = append(rows, []string{
			strconv.Itoa(fp.Index),
			refF(fp.ModelDelay), refF(fp.ModelPower), refF(fp.SimDelay), refF(fp.SimPower),
		})
	}
	return refWriteCSV(w, []string{"index", "model_delay_s", "model_power_w", "sim_delay_s", "sim_power_w"}, rows)
}

func refFigure5aCSV(w io.Writer, avg *depthstudy.SuiteAverage) error {
	var rows [][]string
	for i, d := range avg.Depths {
		rows = append(rows, []string{
			strconv.Itoa(d), refF(avg.OriginalRel[i]), refF(avg.Q1Rel[i]), refF(avg.MedianRel[i]),
			refF(avg.Q3Rel[i]), refF(avg.MaxRel[i]), refF(avg.BoundRel[i]), refF(avg.FracBeatsBaseline[i]),
		})
	}
	return refWriteCSV(w, []string{
		"depth_fo4", "original_rel", "q1", "median", "q3", "max", "bound_rel", "frac_beats_baseline",
	}, rows)
}

func refFigure9CSV(w io.Writer, res *heterostudy.Result, benches []string) error {
	headers := append([]string{"clusters", "avg_model_gain", "avg_sim_gain"}, benches...)
	base := []string{"0", "1", "1"}
	for range benches {
		base = append(base, "1")
	}
	rows := [][]string{base}
	for _, lvl := range res.Levels {
		row := []string{strconv.Itoa(lvl.K), refF(lvl.AvgModelGain), refF(lvl.AvgSimGain)}
		for _, b := range benches {
			row = append(row, refF(lvl.ModelGain[b]))
		}
		rows = append(rows, row)
	}
	return refWriteCSV(w, headers, rows)
}

func refTable2CSV(w io.Writer, results map[string]*paretostudy.Result) error {
	var rows [][]string
	for _, bench := range sortedKeys(results) {
		o := results[bench].Best
		c := o.Config
		rows = append(rows, []string{
			bench,
			strconv.Itoa(c.DepthFO4), strconv.Itoa(c.Width), strconv.Itoa(c.GPR),
			strconv.Itoa(c.ResvBR), strconv.Itoa(c.IL1KB), strconv.Itoa(c.DL1KB), strconv.Itoa(c.L2KB),
			refF(o.ModelDelay), refF(o.DelayErr), refF(o.ModelPower), refF(o.PowerErr),
		})
	}
	return refWriteCSV(w, []string{
		"benchmark", "depth_fo4", "width", "gpr", "resv_br", "il1_kb", "dl1_kb", "l2_kb",
		"model_delay_s", "delay_err", "model_power_w", "power_err",
	}, rows)
}

// fullCharacterization is a seeded stand-in for one benchmark's
// exhaustive sweep: one prediction per design of the exploration space,
// every 97th of them invalid so the emitter's filter is exercised.
func fullCharacterization() (*arch.Space, *paretostudy.Result) {
	space := arch.ExplorationSpace()
	r := rand.New(rand.NewSource(2007))
	preds := make([]core.Prediction, space.Size())
	for i := range preds {
		preds[i] = core.Prediction{BIPS: 0.05 + 3*r.Float64(), Watts: 5 + 150*r.Float64()}
		if i%97 == 0 {
			preds[i].BIPS = -preds[i].BIPS
		}
	}
	return space, &paretostudy.Result{Benchmark: "gzip", Characterization: preds}
}

// boundaryCharacterization is fullCharacterization with invalid rows
// (BIPS <= 0 or Watts <= 0) at the chunk boundaries, a whole chunk of
// them and an invalid last row. The boundaries take turns: the last row
// before one is invalid, the first row after the next, both rows at the
// third, so a row lost or doubled on either side of a boundary shows.
// Its length, the space's 262,500 designs, is not a multiple of the
// chunk size.
func boundaryCharacterization() (*arch.Space, *paretostudy.Result) {
	space, res := fullCharacterization()
	preds := res.Characterization
	for b, lo := 0, figure2ChunkRows; lo < len(preds); b, lo = b+1, lo+figure2ChunkRows {
		if b%3 != 1 {
			preds[lo-1].Watts = 0
		}
		if b%3 != 0 {
			preds[lo].BIPS = -preds[lo].BIPS
		}
	}
	for i := 3 * figure2ChunkRows; i < 4*figure2ChunkRows; i++ {
		preds[i].Watts = -1
	}
	preds[len(preds)-1].BIPS = 0
	return space, res
}

// emitterCase pairs a streamed emitter with its reference on one input.
type emitterCase struct {
	name string
	emit func(io.Writer) error
	ref  func(io.Writer) error
}

func emitterCases() []emitterCase {
	pareto := sampleParetoResult()
	pareto2 := sampleParetoResult()
	pareto2.Best.ModelDelay, pareto2.Best.DelayErr = 1e21, -0.0
	tables := map[string]*paretostudy.Result{"gzip": pareto, "with,comma": pareto2}
	_, avg := sampleDepthResult()
	hetero := sampleHeteroResult()
	benches := []string{"gzip", "mcf"}
	rep := &core.ValidationReport{PerBenchmark: []core.BenchmarkErrors{
		{Benchmark: "gzip", Perf: []float64{0.01, -0.05, 1e-5, 1e-4}, Power: []float64{0.02, 123456789}},
		{Benchmark: "say \"hi\"", Perf: []float64{math.NaN(), math.Inf(1), math.Inf(-1)}, Power: []float64{5e-324}},
	}}
	space, full := fullCharacterization()
	return []emitterCase{
		{name: "figure1", emit: func(w io.Writer) error { return Figure1CSV(w, rep) },
			ref: func(w io.Writer) error { return refFigure1CSV(w, rep) }},
		{name: "figure2", emit: func(w io.Writer) error { return Figure2CSV(w, space, pareto) },
			ref: func(w io.Writer) error { return refFigure2CSV(w, space, pareto) }},
		{name: "figure2-full",
			emit: func(w io.Writer) error { return Figure2CSV(w, space, full) },
			ref:  func(w io.Writer) error { return refFigure2CSV(w, space, full) }},
		{name: "figure3", emit: func(w io.Writer) error { return Figure3CSV(w, pareto) },
			ref: func(w io.Writer) error { return refFigure3CSV(w, pareto) }},
		{name: "figure5a", emit: func(w io.Writer) error { return Figure5aCSV(w, avg) },
			ref: func(w io.Writer) error { return refFigure5aCSV(w, avg) }},
		{name: "figure9", emit: func(w io.Writer) error { return Figure9CSV(w, hetero, benches) },
			ref: func(w io.Writer) error { return refFigure9CSV(w, hetero, benches) }},
		{name: "table2", emit: func(w io.Writer) error { return Table2CSV(w, tables) },
			ref: func(w io.Writer) error { return refTable2CSV(w, tables) }},
	}
}

func TestCSVEmittersMatchReference(t *testing.T) {
	for _, tc := range emitterCases() {
		var got, want bytes.Buffer
		if err := tc.emit(&got); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := tc.ref(&want); err != nil {
			t.Fatalf("%s reference: %v", tc.name, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			g, w := got.String(), want.String()
			i := 0
			for i < len(g) && i < len(w) && g[i] == w[i] {
				i++
			}
			t.Fatalf("%s: streamed output differs from reference at byte %d of %d/%d:\n got  %.80q\n want %.80q",
				tc.name, i, len(g), len(w), g[i:], w[i:])
		}
	}
}

// TestFigure2CSVIndependentOfGOMAXPROCS pins the chunk-parallel
// emitter's bytes to the reference at one, two and seven workers.
func TestFigure2CSVIndependentOfGOMAXPROCS(t *testing.T) {
	space, res := boundaryCharacterization()
	if len(res.Characterization)%figure2ChunkRows == 0 {
		t.Fatalf("%d rows is a whole number of chunks", len(res.Characterization))
	}
	var want bytes.Buffer
	if err := refFigure2CSV(&want, space, res); err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 7} {
		runtime.GOMAXPROCS(procs)
		var got bytes.Buffer
		if err := Figure2CSV(&got, space, res); err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("GOMAXPROCS %d: %d bytes differ from the reference's %d", procs, got.Len(), want.Len())
		}
	}
}

// TestFigure2LengthMismatchPanics checks that both Figure 2 emitters
// reject a characterization that does not hold exactly one prediction
// per design: a row's design is its position, so a short slice would
// drop designs and a long one would wrap past the space.
func TestFigure2LengthMismatchPanics(t *testing.T) {
	space := arch.ExplorationSpace()
	for _, n := range []int{0, 2, space.Size() - 1, space.Size() + 1} {
		preds := make([]core.Prediction, n)
		for i := range preds {
			preds[i] = core.Prediction{BIPS: 1, Watts: 10}
		}
		res := &paretostudy.Result{Benchmark: "gzip", Characterization: preds}
		for name, emit := range map[string]func(){
			"Figure2":    func() { Figure2(space, res) },
			"Figure2CSV": func() { _ = Figure2CSV(io.Discard, space, res) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s accepted %d predictions for a %d-design space", name, n, space.Size())
					}
				}()
				emit()
			}()
		}
	}
}

func TestCSVFloatMatchesPercentG(t *testing.T) {
	vals := []float64{
		0, math.Copysign(0, -1), 1, -1, math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-1022 - 5e-324,
		math.MaxFloat64, -math.MaxFloat64,
		1e20, 1e21, 1e21 - 65536, 1e22, 999999, 1e6, 123456, 1234567,
		1e-4, 1e-5, 0.000099999, 0.00001, 1.5e-5, 0.1, 1.0 / 3,
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		vals = append(vals, math.Float64frombits(r.Uint64()))
	}
	c := newCSVWriter(io.Discard)
	for _, v := range vals {
		c.row = c.row[:0]
		c.float(v)
		got := string(c.row[:len(c.row)-1])
		if want := fmt.Sprintf("%g", v); got != want {
			t.Fatalf("float(%b) = %q, %%g gives %q", math.Float64bits(v), got, want)
		}
	}
}

func TestCSVWriterQuoting(t *testing.T) {
	var buf bytes.Buffer
	c := newCSVWriter(&buf)
	c.strs("a", "b")
	for _, row := range [][]string{
		{"1", "plain"},
		{"2", "with,comma"},
		{"3", "with\"quote"},
		{"4", "two\nlines"},
		{"", ""},
		{""},
		{},
	} {
		c.strs(row...)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,plain\n2,\"with,comma\"\n3,\"with\"\"quote\"\n4,\"two\nlines\"\n,\n\n\n"
	if got := buf.String(); got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}

func TestCSVWriterReusesCallerBuffer(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriterSize(&buf, 16)
	if c := newCSVWriter(bw); c.w != bw {
		t.Fatal("a caller's *bufio.Writer was wrapped again")
	}
}

// countingWriter counts the Write calls and bytes that reach it.
type countingWriter struct {
	calls, bytes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.calls++
	w.bytes += len(p)
	return len(p), nil
}

// TestFigure2CSVWriteCalls holds the full-space Figure 2 export to
// buffer-sized writes, so a per-cell write to an unbuffered file cannot
// come back unnoticed.
func TestFigure2CSVWriteCalls(t *testing.T) {
	space, res := fullCharacterization()
	var w countingWriter
	if err := Figure2CSV(&w, space, res); err != nil {
		t.Fatal(err)
	}
	if limit := (w.bytes+4095)/4096 + 1; w.calls > limit {
		t.Fatalf("%d write calls for %d bytes, want at most %d", w.calls, w.bytes, limit)
	}
}

var errWriterFull = errors.New("writer full")

// failAfter accepts n bytes and then fails every write.
type failAfter struct{ n int }

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) <= w.n {
		w.n -= len(p)
		return len(p), nil
	}
	n := w.n
	w.n = 0
	return n, errWriterFull
}

// TestCSVEmittersSurfaceWriteErrors also checks that an emitter which
// meets a write error leaves no goroutine behind.
func TestCSVEmittersSurfaceWriteErrors(t *testing.T) {
	start := runtime.NumGoroutine()
	for _, tc := range emitterCases() {
		var full countingWriter
		if err := tc.emit(&full); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, n := range []int{0, full.bytes / 2, full.bytes - 1} {
			if err := tc.emit(&failAfter{n: n}); !errors.Is(err, errWriterFull) {
				t.Fatalf("%s failing after %d of %d bytes: err = %v, want %v", tc.name, n, full.bytes, err, errWriterFull)
			}
			// A worker that has signalled its exit may not have
			// returned yet, so allow it a moment.
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > start; {
				if time.Now().After(deadline) {
					t.Fatalf("%s failing after %d of %d bytes: %d goroutines, %d before",
						tc.name, n, full.bytes, runtime.NumGoroutine(), start)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
}

var benchSink error

func BenchmarkFigure2CSV(b *testing.B) {
	space, res := fullCharacterization()
	var size countingWriter
	if err := Figure2CSV(&size, space, res); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(size.bytes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = Figure2CSV(io.Discard, space, res)
	}
}
