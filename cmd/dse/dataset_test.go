package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/obs"
)

// datasetArgs is the cheap configuration the dataset CLI tests share:
// two benchmarks, a training budget just above the model's 21
// coefficients, and short traces.
func datasetArgs(extra ...string) []string {
	base := []string{
		"-samples", "40",
		"-validation", "5",
		"-tracelen", "2000",
		"-benchmarks", "gzip,mcf",
	}
	return append(base, extra...)
}

// dirFiles lists the names in dir, sorted (as os.ReadDir returns them).
func dirFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

// TestDatasetMatchesTrainCheckpoints: the dataset command writes
// exactly the train-<bench>.ckpt files a checkpointed train writes,
// byte for byte, and nothing else; a -resume train over them fits its
// models without simulating (its manifest's train phase records no
// simulator evaluations).
func TestDatasetMatchesTrainCheckpoints(t *testing.T) {
	trainDir, dataDir := t.TempDir(), t.TempDir()
	var out bytes.Buffer
	if err := run(datasetArgs("-checkpoint", trainDir, "train"), &out); err != nil {
		t.Fatal(err)
	}
	if err := run(datasetArgs("-checkpoint", dataDir, "dataset"), &out); err != nil {
		t.Fatal(err)
	}
	want := []string{"train-gzip.ckpt", "train-mcf.ckpt"}
	for _, dir := range []string{trainDir, dataDir} {
		if got := dirFiles(t, dir); !slices.Equal(got, want) {
			t.Fatalf("%s holds %v, want %v", dir, got, want)
		}
	}
	for _, name := range want {
		a, err := os.ReadFile(filepath.Join(trainDir, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dataDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: dataset wrote %d bytes that differ from train's %d", name, len(b), len(a))
		}
	}

	manifest := filepath.Join(t.TempDir(), "manifest.json")
	if err := run(datasetArgs("-checkpoint", dataDir, "-resume", "-manifest", manifest, "train"), &out); err != nil {
		t.Fatal(err)
	}
	man, err := obs.ReadManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	trained := false
	for _, ph := range man.Phases {
		if ph.Name == "train" {
			trained = true
			if n := ph.Stats["sim_evaluations"]; n != 0 {
				t.Fatalf("resumed train simulated %d designs", n)
			}
		}
	}
	if !trained {
		t.Fatalf("manifest has no train phase: %+v", man.Phases)
	}
}

// TestDatasetRequiresCheckpoint: the dataset command's output is its
// checkpoint files, so it refuses to run without a directory for them.
func TestDatasetRequiresCheckpoint(t *testing.T) {
	var out bytes.Buffer
	if err := run(datasetArgs("dataset"), &out); err == nil {
		t.Fatal("dataset without -checkpoint accepted")
	}
}
