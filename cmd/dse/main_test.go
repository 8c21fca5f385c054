package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fastArgs keeps the end-to-end CLI tests quick.
func fastArgs(extra ...string) []string {
	base := []string{
		"-samples", "120",
		"-validation", "20",
		"-tracelen", "15000",
		"-benchmarks", "gzip,mcf",
	}
	return append(base, extra...)
}

func TestRunRequiresCommand(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{}, &out); err == nil {
		t.Fatal("missing command accepted")
	}
	if err := run([]string{"-samples", "10", "bogus"}, &out); err == nil {
		t.Fatal("unknown command accepted")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-samples", "0", "train"}, &out); err == nil {
		t.Fatal("zero samples accepted")
	}
	if err := run([]string{"-benchmarks", "nope", "train"}, &out); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if err := run([]string{"-workers", "-3", "train"}, &out); err == nil {
		t.Fatal("negative workers accepted")
	}
	if err := run([]string{"-workers", "two", "train"}, &out); err == nil {
		t.Fatal("non-numeric workers accepted")
	}
}

// TestWorkersFlag covers -workers parsing end to end: an explicit worker
// count and the 0 = all-cores default must both train successfully.
func TestWorkersFlag(t *testing.T) {
	for _, workers := range []string{"1", "2", "0"} {
		var out bytes.Buffer
		args := []string{
			"-samples", "60", "-validation", "10", "-tracelen", "8000",
			"-benchmarks", "gzip", "-workers", workers, "train",
		}
		if err := run(args, &out); err != nil {
			t.Fatalf("-workers %s: %v", workers, err)
		}
		if !strings.Contains(out.String(), "gzip performance model") {
			t.Fatalf("-workers %s produced no model output", workers)
		}
	}
}

func TestRunTrain(t *testing.T) {
	var out bytes.Buffer
	if err := run(fastArgs("train"), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"gzip performance model", "mcf power model", "R2="} {
		if !strings.Contains(s, want) {
			t.Fatalf("train output missing %q", want)
		}
	}
}

func TestRunValidate(t *testing.T) {
	var out bytes.Buffer
	if err := run(fastArgs("validate"), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Figure 1") {
		t.Fatal("validate output missing Figure 1")
	}
}

func TestRunParetoNoSim(t *testing.T) {
	var out bytes.Buffer
	if err := run(fastArgs("-nosim", "-delaytargets", "10", "pareto"), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"Figure 2", "Figure 3", "Table 2"} {
		if !strings.Contains(s, want) {
			t.Fatalf("pareto output missing %q", want)
		}
	}
	if strings.Contains(s, "Figure 4") {
		t.Fatal("-nosim should skip Figure 4")
	}
}

func TestRunDepthNoSim(t *testing.T) {
	var out bytes.Buffer
	if err := run(fastArgs("-nosim", "depth"), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"Figure 5a", "Figure 5b", "optimal depth"} {
		if !strings.Contains(s, want) {
			t.Fatalf("depth output missing %q", want)
		}
	}
}

func TestRunHeteroNoSim(t *testing.T) {
	var out bytes.Buffer
	if err := run(fastArgs("-nosim", "hetero"), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"Figure 8", "Figure 9"} {
		if !strings.Contains(s, want) {
			t.Fatalf("hetero output missing %q", want)
		}
	}
}

func TestRunSearch(t *testing.T) {
	var out bytes.Buffer
	if err := run(fastArgs("search"), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "Heuristic search") || !strings.Contains(s, "262500") {
		t.Fatalf("search output incomplete:\n%s", s)
	}
}

func TestSaveAndLoadModels(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "models.json")

	var out bytes.Buffer
	if err := run(fastArgs("-savemodels", path, "train"), &out); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("models file not written: %v", err)
	}

	// Reload without training: output must not mention training.
	out.Reset()
	if err := run(fastArgs("-loadmodels", path, "train"), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "loaded models") {
		t.Fatal("load path not taken")
	}
	if strings.Contains(s, "trained in") {
		t.Fatal("loading still trained")
	}
	if !strings.Contains(s, "gzip performance model") {
		t.Fatal("loaded models unusable")
	}
}

func TestLoadModelsMissingFile(t *testing.T) {
	var out bytes.Buffer
	if err := run(fastArgs("-loadmodels", "/nonexistent/models.json", "train"), &out); err == nil {
		t.Fatal("missing model file accepted")
	}
}

func TestCSVOutput(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run(fastArgs("-nosim", "-csvdir", dir, "report"), &out); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"figure1.csv", "figure2_gzip.csv", "figure2_mcf.csv",
		"figure3_gzip.csv", "table2.csv", "figure5a.csv", "figure9.csv",
	} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("missing %s: %v", name, err)
		}
		if len(bytes.Split(data, []byte{'\n'})) < 3 {
			t.Fatalf("%s looks empty", name)
		}
	}
	// The figure 2 scatter covers the whole exploration space.
	data, err := os.ReadFile(filepath.Join(dir, "figure2_gzip.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Count(data, []byte{'\n'})
	if lines < 200000 {
		t.Fatalf("figure2 has only %d rows", lines)
	}
}

func TestParetoCSVWriteErrorStopsInBenchmarkOrder(t *testing.T) {
	// A directory where the last benchmark's scatter belongs makes that
	// write fail. The files go out in -benchmarks order, so every earlier
	// benchmark's are complete and nothing after the failure is written.
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "figure2_twolf.csv"), 0o755); err != nil {
		t.Fatal(err)
	}
	args := fastArgs("-benchmarks", "gzip,mcf,mesa,twolf", "-nosim", "-delaytargets", "5", "-csvdir", dir, "pareto")
	var out bytes.Buffer
	if err := run(args, &out); err == nil {
		t.Fatal("pareto succeeded with an unwritable CSV path")
	}
	for _, bench := range []string{"gzip", "mcf", "mesa"} {
		for _, name := range []string{"figure2_" + bench + ".csv", "figure3_" + bench + ".csv"} {
			if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
				t.Fatalf("%s not written before the failure: %v", name, err)
			}
		}
	}
	for _, name := range []string{"figure3_twolf.csv", "table2.csv"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			t.Fatalf("%s written after the failure", name)
		}
	}
}
