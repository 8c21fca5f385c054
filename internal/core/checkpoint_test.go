package core

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/fault"
)

// ckptTestOptions is a small but real training configuration: enough
// samples for several checkpoint chunks, short traces so the whole test
// stays fast.
func ckptTestOptions() Options {
	opts := DefaultOptions()
	opts.TrainSamples = 40
	opts.ValidationSamples = 5
	opts.TraceLen = 2000
	opts.Benchmarks = []string{"gzip"}
	opts.Workers = 2
	opts.CheckpointEvery = 10
	return opts
}

// trainGolden runs an uninterrupted, checkpoint-free training and
// returns the explorer.
func trainGolden(t *testing.T) *Explorer {
	t.Helper()
	golden, err := New(ckptTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := golden.Train(); err != nil {
		t.Fatal(err)
	}
	return golden
}

// TestKillAndResumeBitIdentical is the crash-safety acceptance test: a
// training run killed mid-dataset by an injected fatal fault resumes
// from its checkpoint and produces a dataset and model fit bit-identical
// to an uninterrupted run — while re-simulating only the samples past
// the last checkpoint.
func TestKillAndResumeBitIdentical(t *testing.T) {
	if fault.Active() {
		t.Skip("test arms its own fault plan; exact eval counts need a fault-free world")
	}
	golden := trainGolden(t)

	dir := t.TempDir()
	opts := ckptTestOptions()
	opts.CheckpointDir = dir

	// Kill the run at exactly the 16th simulation: chunk [0,10) has
	// checkpointed, chunk [10,20) dies mid-flight. Fatal injections are
	// not transient, so the retry layer must not absorb the kill.
	prev := fault.Current()
	fault.Enable(&fault.Plan{Rules: []fault.Rule{
		{Site: "eval.invoke", Kind: fault.KindFatal, After: 15, Every: 1, Count: 1},
	}})
	killed, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	err = killed.Train()
	fault.Enable(prev)
	var inj *fault.Injected
	if !errors.As(err, &inj) {
		t.Fatalf("killed Train returned %v, want wrapped *fault.Injected", err)
	}
	if killed.Trained() {
		t.Fatal("killed run reports trained models")
	}

	// Resume in a fresh process (a fresh Explorer): completed chunks load
	// from the checkpoint, the rest re-simulate.
	opts.Resume = true
	resumed, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Train(); err != nil {
		t.Fatalf("resumed Train: %v", err)
	}
	// One chunk (10 samples) was checkpointed before the kill, so the
	// resumed run simulates exactly the other 30.
	if got := resumed.SimStats().Evaluations; got != 30 {
		t.Errorf("resumed run simulated %d samples, want 30 (10 checkpointed)", got)
	}

	// The dataset must be bit-identical to the uninterrupted run's.
	goldenDS := golden.trainData["gzip"]
	resumedDS := resumed.trainData["gzip"]
	if goldenDS == nil || resumedDS == nil {
		t.Fatal("missing train dataset")
	}
	for _, col := range []string{ColBIPS, ColWatts} {
		g, r := goldenDS.Column(col), resumedDS.Column(col)
		if len(g) != len(r) {
			t.Fatalf("column %s lengths differ: %d vs %d", col, len(g), len(r))
		}
		for i := range g {
			if g[i] != r[i] {
				t.Fatalf("column %s row %d: golden %v, resumed %v", col, i, g[i], r[i])
			}
		}
	}

	// And so must the model fit.
	for bench, gm := range golden.perf {
		_, gc := gm.Coefficients()
		_, rc := resumed.perf[bench].Coefficients()
		if len(gc) != len(rc) {
			t.Fatalf("%s perf coefficient counts differ", bench)
		}
		for i := range gc {
			if gc[i] != rc[i] {
				t.Fatalf("%s perf coefficient %d: golden %v, resumed %v", bench, i, gc[i], rc[i])
			}
		}
	}
}

// TestResumeSkipsCompletedDataset checks the fully-completed fast
// path: a finished run's checkpoints let a fresh explorer retrain with
// zero simulations.
func TestResumeSkipsCompletedDataset(t *testing.T) {
	if fault.Active() {
		t.Skip("exact eval counts need a fault-free world")
	}
	dir := t.TempDir()
	opts := ckptTestOptions()
	opts.CheckpointDir = dir

	first, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Train(); err != nil {
		t.Fatal(err)
	}

	opts.Resume = true
	second, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := second.Train(); err != nil {
		t.Fatal(err)
	}
	if got := second.SimStats().Evaluations; got != 0 {
		t.Errorf("resumed run simulated %d samples, want 0 (all checkpointed)", got)
	}
}

// TestBuildDatasetMatchesTrain: BuildDataset writes the checkpoint a
// checkpointed Train writes, byte for byte, fits no models, and a
// resumed Train over it fits with zero simulations. Without a
// checkpoint directory it has nowhere to put its output and refuses.
func TestBuildDatasetMatchesTrain(t *testing.T) {
	if fault.Active() {
		t.Skip("exact eval counts need a fault-free world")
	}
	trainDir, dataDir := t.TempDir(), t.TempDir()
	opts := ckptTestOptions()
	opts.CheckpointDir = trainDir
	trained, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := trained.Train(); err != nil {
		t.Fatal(err)
	}

	opts.CheckpointDir = dataDir
	built, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := built.BuildDataset(context.Background()); err != nil {
		t.Fatal(err)
	}
	if built.Trained() {
		t.Fatal("BuildDataset fitted models")
	}
	want, err := os.ReadFile(filepath.Join(trainDir, "train-gzip.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dataDir, "train-gzip.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BuildDataset checkpoint (%d bytes) differs from Train's (%d bytes)", len(got), len(want))
	}

	opts.Resume = true
	resumed, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Train(); err != nil {
		t.Fatal(err)
	}
	if n := resumed.SimStats().Evaluations; n != 0 {
		t.Errorf("train resumed from BuildDataset simulated %d samples, want 0", n)
	}

	opts.CheckpointDir = ""
	opts.Resume = false
	bare, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := bare.BuildDataset(context.Background()); err == nil {
		t.Fatal("BuildDataset without CheckpointDir succeeded")
	}
}

// TestResumedSweepUsesOwnModels: the checkpoint identity covers the
// dataset, not the models fitted to it, so nothing a checkpoint
// directory holds may stand in for a sweep. An explorer fitted with
// LinearSpec, resuming from a PaperSpec run's directory, must sweep its
// own models bit for bit.
func TestResumedSweepUsesOwnModels(t *testing.T) {
	dir := t.TempDir()
	opts := ckptTestOptions()
	opts.CheckpointDir = dir
	a, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Train(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ExhaustivePredict("gzip"); err != nil {
		t.Fatal(err)
	}

	opts.Spec = LinearSpec
	opts.Resume = true
	b, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Train(); err != nil {
		t.Fatal(err)
	}
	got, err := b.ExhaustivePredict("gzip")
	if err != nil {
		t.Fatal(err)
	}
	want := make([]Prediction, b.StudySpace.Size())
	if err := b.ExhaustivePredictInto(context.Background(), "gzip", want); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sweep point %d: got %+v, own models give %+v", i, got[i], want[i])
		}
	}
}

// TestResumeRefusesMismatchedIdentity: a checkpoint from a run with a
// different seed must not be silently mixed into this one.
func TestResumeRefusesMismatchedIdentity(t *testing.T) {
	dir := t.TempDir()
	opts := ckptTestOptions()
	opts.CheckpointDir = dir
	first, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Train(); err != nil {
		t.Fatal(err)
	}

	opts.Seed++
	opts.Resume = true
	second, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := second.Train(); !errors.Is(err, ckpt.ErrIdentity) {
		t.Fatalf("mismatched resume returned %v, want ckpt.ErrIdentity", err)
	}
}

// TestSweepGuardTripsOnCorruptionAndRecovers injects bit flips into
// every plan sweep result: the per-chunk guardrail must catch the
// divergence, trip, and re-run the sweep on the interpreted path so the
// final output is still correct.
func TestSweepGuardTripsOnCorruptionAndRecovers(t *testing.T) {
	opts := ckptTestOptions()
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Train(); err != nil {
		t.Fatal(err)
	}

	// Golden output from the interpreted path of an untouched explorer.
	want, err := interpretedExplorer(t, e, nil).ExhaustivePredict("gzip")
	if err != nil {
		t.Fatal(err)
	}

	prev := fault.Current()
	fault.Enable(&fault.Plan{Rules: []fault.Rule{
		{Site: "core.sweep.compiled", Kind: fault.KindFlip, Every: 1},
	}})
	got, err := e.ExhaustivePredict("gzip")
	fault.Enable(prev)
	if err != nil {
		t.Fatal(err)
	}
	checks, div, degraded := e.modelsBackend.GuardStats()
	if checks == 0 || div == 0 || !degraded {
		t.Fatalf("guard stats = %d/%d/%v after corrupted sweep, want trips", checks, div, degraded)
	}
	if len(got) != len(want) {
		t.Fatalf("sweep lengths differ: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d survived corruption: got %+v, want %+v", i, got[i], want[i])
		}
	}
	// Engine stats surface the guardrail through the backend probe.
	st := e.ModelStats()
	if st.GuardChecks != checks || st.GuardDivergences != div || !st.Degraded {
		t.Fatalf("engine stats %+v do not reflect guard %d/%d", st, checks, div)
	}
	if len(got) != e.StudySpace.Size() {
		t.Fatalf("sweep covered %d of %d points", len(got), e.StudySpace.Size())
	}
}
