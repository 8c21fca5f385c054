package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TestManifestEmission runs a study with -manifest and checks the
// emitted JSON parses under the schema version and records the run's
// environment, phases and engine work.
func TestManifestEmission(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "manifest.json")

	var out bytes.Buffer
	if err := run(fastArgs("-nosim", "-manifest", path, "pareto"), &out); err != nil {
		t.Fatal(err)
	}

	m, err := obs.ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Tool != "dse" || m.Command != "pareto" {
		t.Fatalf("tool/command = %q/%q", m.Tool, m.Command)
	}
	if m.Seed != 2007 {
		t.Fatalf("seed = %d, want the default 2007", m.Seed)
	}
	if m.SpaceSize != 262500 || m.SampleSpaceSize != 375000 {
		t.Fatalf("space sizes = %d/%d, want 262500/375000", m.SpaceSize, m.SampleSpaceSize)
	}
	if len(m.Benchmarks) != 2 || m.Benchmarks[0] != "gzip" || m.Benchmarks[1] != "mcf" {
		t.Fatalf("benchmarks = %v", m.Benchmarks)
	}
	if runtime.GOOS == "linux" && m.PeakRSSMB <= 0 {
		t.Fatalf("peak_rss_mb = %v, want the run's positive peak RSS", m.PeakRSSMB)
	}
	if m.Workers <= 0 {
		t.Fatalf("workers = %d, want resolved positive count", m.Workers)
	}
	if m.WallSeconds <= 0 {
		t.Fatalf("wall seconds = %v", m.WallSeconds)
	}

	// Phases: training then the study, each with engine-stat deltas that
	// must not double-count (train does all the simulating; the model-only
	// pareto study must not report any simulator evaluations).
	if len(m.Phases) != 2 || m.Phases[0].Name != "train" || m.Phases[1].Name != "pareto" {
		t.Fatalf("phases = %+v, want [train pareto]", m.Phases)
	}
	if got := m.Phases[0].Stats["sim_evaluations"]; got != 2*120 {
		t.Fatalf("train phase sim_evaluations = %d, want 240", got)
	}
	// The study simulates exactly one optimum per benchmark; anything near
	// 240 would mean the phase re-reported training's work.
	if got := m.Phases[1].Stats["sim_evaluations"]; got != 2 {
		t.Fatalf("pareto phase sim_evaluations = %d, want 2 (epoch double-count?)", got)
	}
	if got := m.Phases[1].Stats["model_swept_points"]; got != 2*262500 {
		t.Fatalf("pareto phase model_swept_points = %d, want 525000", got)
	}

	// Training composes each warm key's outcome mask from component
	// passes walked once each: one per trace, one per distinct IL1 size
	// and one per distinct DL1 geometry of the training sample. The
	// study's simulations reuse them.
	space := arch.TableOneSpace()
	il1s, dl1s := map[int]bool{}, map[[2]int]bool{}
	for _, p := range space.SampleUAR(120, 2007) {
		c := space.Config(p)
		il1s[c.IL1KB] = true
		dl1s[[2]int{c.DL1KB, sim.EffectiveDL1Assoc(c)}] = true
	}
	if got, want := m.Phases[0].Stats["sim_outcome_walks"], int64(2*(1+len(il1s)+len(dl1s))); got != want {
		t.Fatalf("train phase sim_outcome_walks = %d, want %d", got, want)
	}
	if got := m.Phases[1].Stats["sim_outcome_walks"]; got != 0 {
		t.Fatalf("pareto phase sim_outcome_walks = %d, want 0 (components reused)", got)
	}

	// Simulation counters are always on, even without -trace.
	if m.Counters["sim.runs"] < 2*120 {
		t.Fatalf("counters = %v, want sim.runs >= 240", m.Counters)
	}
}

// TestObservabilityDoesNotChangeOutput is the golden-equivalence check:
// enabling -trace, -manifest and -pprof must not change a single output
// byte of a study (all diagnostics go to stderr or files).
func TestObservabilityDoesNotChangeOutput(t *testing.T) {
	dir := t.TempDir()
	models := filepath.Join(dir, "models.json")

	// Train once so both runs share identical models and skip the
	// wall-clock-dependent "trained in Xs" line.
	var train bytes.Buffer
	if err := run(fastArgs("-savemodels", models, "train"), &train); err != nil {
		t.Fatal(err)
	}

	var plain bytes.Buffer
	if err := run(fastArgs("-loadmodels", models, "-nosim", "validate"), &plain); err != nil {
		t.Fatal(err)
	}

	spanLog := filepath.Join(dir, "spans.jsonl")
	manifest := filepath.Join(dir, "manifest.json")
	var observed bytes.Buffer
	err := run(fastArgs(
		"-loadmodels", models, "-nosim",
		"-trace", spanLog,
		"-manifest", manifest,
		"-pprof", "127.0.0.1:0",
		"validate"), &observed)
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(plain.Bytes(), observed.Bytes()) {
		t.Fatalf("observability changed study output.\nplain:\n%s\nobserved:\n%s",
			plain.String(), observed.String())
	}

	// The side files exist and carry real content.
	spans, err := os.ReadFile(spanLog)
	if err != nil {
		t.Fatalf("span log not written: %v", err)
	}
	if !strings.Contains(string(spans), `"name":"core.validate"`) {
		t.Fatal("span log missing the core.validate span")
	}
	m, err := obs.ReadManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if m.TraceSpans <= 0 {
		t.Fatalf("manifest trace_spans = %d, want > 0 when tracing", m.TraceSpans)
	}
	if len(m.Histograms) == 0 {
		t.Fatal("manifest has no latency histograms despite tracing on")
	}
}

// TestTraceFlagWritesSpanLog checks the span log is valid JSONL with
// nested spans from the whole pipeline.
func TestTraceFlagWritesSpanLog(t *testing.T) {
	dir := t.TempDir()
	spanLog := filepath.Join(dir, "spans.jsonl")
	var out bytes.Buffer
	if err := run(fastArgs("-trace", spanLog, "train"), &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(spanLog)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 3 {
		t.Fatalf("span log has only %d lines", len(lines))
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, "{") || !strings.HasSuffix(l, "}") {
			t.Fatalf("span log line is not a JSON object: %s", l)
		}
	}
	s := string(data)
	for _, want := range []string{"core.train", "core.dataset", "regression.fit"} {
		if !strings.Contains(s, `"name":"`+want+`"`) {
			t.Fatalf("span log missing %q span", want)
		}
	}
}

// TestTraceCoversCSVOutput: with -trace and -csvdir, every CSV file the
// run writes has exactly one report.csv span naming it.
func TestTraceCoversCSVOutput(t *testing.T) {
	dir := t.TempDir()
	csvDir := filepath.Join(dir, "csv")
	spanLog := filepath.Join(dir, "spans.jsonl")
	var out bytes.Buffer
	if err := run(datasetArgs("-nosim", "-trace", spanLog, "-csvdir", csvDir, "pareto"), &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(spanLog)
	if err != nil {
		t.Fatal(err)
	}
	spans := map[string]int{}
	for _, l := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var rec obs.SpanRecord
		if err := json.Unmarshal([]byte(l), &rec); err != nil {
			t.Fatalf("span log line %q: %v", l, err)
		}
		if rec.Name != "report.csv" {
			continue
		}
		for _, a := range rec.Attrs {
			if a.Key == "file" {
				spans[a.Value]++
			}
		}
	}
	files := dirFiles(t, csvDir)
	if len(files) == 0 {
		t.Fatal("pareto -csvdir wrote no CSV files")
	}
	for _, f := range files {
		if spans[f] != 1 {
			t.Errorf("%s has %d report.csv spans, want 1", f, spans[f])
		}
	}
	if len(spans) != len(files) {
		t.Errorf("report.csv spans name %v, files written %v", spans, files)
	}
}

// reportTextSpans runs a traced report and counts its trace file's
// report.text spans by the figure they name.
func reportTextSpans(t *testing.T) map[string]int {
	t.Helper()
	spanLog := filepath.Join(t.TempDir(), "spans.jsonl")
	var out bytes.Buffer
	if err := run(datasetArgs("-nosim", "-trace", spanLog, "report"), &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(spanLog)
	if err != nil {
		t.Fatal(err)
	}
	figures := map[string]int{}
	for _, l := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var rec obs.SpanRecord
		if err := json.Unmarshal([]byte(l), &rec); err != nil {
			t.Fatalf("span log line %q: %v", l, err)
		}
		if rec.Name != "report.text" {
			continue
		}
		named := false
		for _, a := range rec.Attrs {
			if a.Key == "figure" && a.Value != "" {
				figures[a.Value]++
				named = true
			}
		}
		if !named {
			t.Errorf("report.text span %+v names no figure", rec)
		}
	}
	if len(figures) == 0 {
		t.Fatal("traced report has no report.text span")
	}
	return figures
}

// checkOneSpanPerFigure fails unless each figure and table the report
// prints has exactly one report.text span.
func checkOneSpanPerFigure(t *testing.T, figures map[string]int) {
	t.Helper()
	for _, want := range []string{"figure1", "figure2_mcf", "table2", "figure5a", "figure5b", "figure9"} {
		if figures[want] != 1 {
			t.Errorf("%s has %d report.text spans, want 1 (all: %v)", want, figures[want], figures)
		}
	}
}

// TestTraceCoversTextOutput: a traced report has a report.text span for
// each figure and table it prints, each naming what it rendered.
func TestTraceCoversTextOutput(t *testing.T) {
	checkOneSpanPerFigure(t, reportTextSpans(t))
}

// TestTracedRunsDoNotShareSpans: every traced run starts with an empty
// tracer, so the second of two traced reports in one process writes
// only its own spans.
func TestTracedRunsDoNotShareSpans(t *testing.T) {
	for i := 0; i < 2; i++ {
		checkOneSpanPerFigure(t, reportTextSpans(t))
	}
}

// TestTracedRunTurnsTracingOff: a traced run leaves tracing off when it
// returns, so an untraced run after it records no spans.
func TestTracedRunTurnsTracingOff(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run(fastArgs("-trace", filepath.Join(dir, "spans.jsonl"), "train"), &out); err != nil {
		t.Fatal(err)
	}
	if obs.Enabled() {
		t.Fatal("tracing still on after a traced run")
	}
	before := obs.DefaultTracer.Total()
	if err := run(fastArgs("train"), &out); err != nil {
		t.Fatal(err)
	}
	if obs.Enabled() {
		t.Fatal("tracing on after an untraced run")
	}
	if got := obs.DefaultTracer.Total(); got != before {
		t.Fatalf("untraced run recorded %d spans", got-before)
	}
}
