package report

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
)

func TestTableAlignment(t *testing.T) {
	tbl := NewTable("demo", "name", "value")
	tbl.AddRow("a", "1")
	tbl.AddRow("longer-name", "22")
	s := tbl.String()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, two rows
		t.Fatalf("got %d lines:\n%s", len(lines), s)
	}
	if !strings.HasPrefix(lines[0], "demo") {
		t.Fatal("missing title")
	}
	// All data lines align to the same width for column 1.
	if len(lines[3]) > len(lines[4])+5 && len(lines[4]) > len(lines[3])+5 {
		t.Fatal("columns look unaligned")
	}
}

func TestTableRowTooWide(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized row accepted")
		}
	}()
	NewTable("", "one").AddRow("a", "b")
}

func TestTableShortRowPads(t *testing.T) {
	tbl := NewTable("", "a", "b")
	tbl.AddRow("x")
	if !strings.Contains(tbl.String(), "x") {
		t.Fatal("short row dropped")
	}
}

func TestRenderBoxplot(t *testing.T) {
	b := stats.NewBoxplot([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9})
	s := RenderBoxplot(b, 0, 10, 40)
	if len(s) != 40 {
		t.Fatalf("width = %d, want 40", len(s))
	}
	for _, want := range []string{"M", "[", "]", "|"} {
		if !strings.Contains(s, want) {
			t.Fatalf("boxplot missing %q: %q", want, s)
		}
	}
}

func TestRenderBoxplotOutliers(t *testing.T) {
	b := stats.NewBoxplot([]float64{1, 2, 3, 4, 5, 100})
	s := RenderBoxplot(b, 0, 100, 50)
	if !strings.Contains(s, "o") {
		t.Fatalf("outlier not rendered: %q", s)
	}
}

func TestRenderBoxplotClampsAndMinWidth(t *testing.T) {
	b := stats.NewBoxplot([]float64{5, 6, 7})
	s := RenderBoxplot(b, 6.5, 6.4, 3) // inverted range, tiny width
	if len(s) != 10 {
		t.Fatalf("minimum width not enforced: %d", len(s))
	}
}

func TestPct(t *testing.T) {
	if Pct(0.123) != "12.3%" {
		t.Fatalf("Pct = %q", Pct(0.123))
	}
	if Pct(-0.05) != "-5.0%" {
		t.Fatalf("Pct = %q", Pct(-0.05))
	}
}

func TestKB(t *testing.T) {
	if KB(64) != "64KB" {
		t.Fatalf("KB(64) = %q", KB(64))
	}
	if KB(2048) != "2MB" {
		t.Fatalf("KB(2048) = %q", KB(2048))
	}
	if KB(256) != "256KB" {
		t.Fatalf("KB(256) = %q", KB(256))
	}
	if KB(1536) != "1.5MB" {
		t.Fatalf("KB(1536) = %q", KB(1536))
	}
}

func TestFigure1Renders(t *testing.T) {
	rep := &core.ValidationReport{PerBenchmark: []core.BenchmarkErrors{
		{Benchmark: "gzip", Perf: []float64{0.01, 0.05, 0.1}, Power: []float64{0.02, 0.03, 0.04}},
	}}
	s := Figure1(rep)
	for _, want := range []string{"Figure 1", "gzip perf", "gzip power", "overall median"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Figure1 missing %q:\n%s", want, s)
		}
	}
}
