package core

import (
	"context"
	"testing"

	"repro/internal/eval"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestCompiledGoldenEquivalence pins the compile step's core contract:
// for every benchmark's fitted performance and power models, the
// compiled plan — per configuration and per level vector — is
// bit-identical to the interpreted Model.Predict, over a large
// deterministic sample of the study space and over the full space for
// one benchmark.
func TestCompiledGoldenEquivalence(t *testing.T) {
	e := testExplorer(t)
	space := e.StudySpace
	for _, bench := range e.Benchmarks() {
		perf, pow, err := e.Models(bench)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := eval.CompilePair(perf, pow, space)
		if err != nil {
			t.Fatal(err)
		}
		for _, pt := range space.SampleUAR(10000, 0xC0FFEE) {
			cfg := space.Config(pt)
			wantB, wantW := eval.PredictInterpreted(perf, pow, cfg)
			if b, w, ok := plan.EvalConfig(cfg); !ok || b != wantB || w != wantW {
				t.Fatalf("%s: EvalConfig(%v) = (%v, %v, %v), interpreted (%v, %v)",
					bench, cfg, b, w, ok, wantB, wantW)
			}
			if b, w := plan.EvalPoint(pt[:]); b != wantB || w != wantW {
				t.Fatalf("%s: EvalPoint(%v) = (%v, %v), interpreted (%v, %v)",
					bench, pt, b, w, wantB, wantW)
			}
		}
	}

	// Full 262,500-point space for one benchmark.
	perf, pow, err := e.Models("gzip")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := eval.CompilePair(perf, pow, space)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < space.Size(); i++ {
		pt := space.PointAt(i)
		wantB, wantW := eval.PredictInterpreted(perf, pow, space.Config(pt))
		if b, w := plan.EvalPoint(pt[:]); b != wantB || w != wantW {
			t.Fatalf("gzip flat %d: plan (%v, %v), interpreted (%v, %v)",
				i, b, w, wantB, wantW)
		}
	}
}

// explorerLike returns a fresh explorer with src's options (adjusted by
// mutate) and models.
func explorerLike(t testing.TB, src *Explorer, mutate func(*Options)) *Explorer {
	t.Helper()
	opts := src.Options()
	if mutate != nil {
		mutate(&opts)
	}
	ex, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := copyModels(src, ex); err != nil {
		t.Fatal(err)
	}
	return ex
}

// interpretedExplorer is explorerLike with its guardrail tripped, so
// every prediction and sweep runs on the interpreted models: the
// reference oracle.
func interpretedExplorer(t testing.TB, src *Explorer, mutate func(*Options)) *Explorer {
	t.Helper()
	ex := explorerLike(t, src, mutate)
	ex.modelsBackend.Guard().Record(true)
	return ex
}

// TestSweepBlockedBitIdenticalToInterpreted is the golden equivalence
// check for the exhaustive sweep: the compiled range kernel
// and the interpreted per-request path must produce bit-identical
// output over the full 262,500-point study space for every trained
// benchmark — and each explorer must actually take its intended path.
func TestSweepBlockedBitIdenticalToInterpreted(t *testing.T) {
	e := testExplorer(t)
	interp := interpretedExplorer(t, e, nil)
	interpChecks := interp.ModelStats().GuardChecks

	n := e.StudySpace.Size()
	blockedOut := make([]Prediction, n)
	interpOut := make([]Prediction, n)
	for _, bench := range e.Benchmarks() {
		if err := e.ExhaustivePredictInto(context.Background(), bench, blockedOut); err != nil {
			t.Fatal(err)
		}
		if err := interp.ExhaustivePredictInto(context.Background(), bench, interpOut); err != nil {
			t.Fatal(err)
		}
		for i := range blockedOut {
			if blockedOut[i] != interpOut[i] {
				t.Fatalf("%s flat %d: blocked %+v, interpreted %+v", bench, i, blockedOut[i], interpOut[i])
			}
		}
	}
	// Only the compiled kernel ticks the guardrail; the interpreted
	// re-sweep never cross-checks against itself.
	if st := e.ModelStats(); st.Degraded || st.GuardChecks == 0 {
		t.Fatal("default explorer did not use the sweep kernel")
	}
	if st := interp.ModelStats(); st.GuardChecks != interpChecks {
		t.Fatal("interpreted explorer used the sweep kernel")
	}
}

// TestSweepGuardCheckRate pins the guardrail coverage contract of the
// sweep kernel: it ticks the guard per point (TickCount per chunk), so
// a full sweep cross-checks about one in DefaultModelGuardInterval
// points — not one per tile or per chunk.
func TestSweepGuardCheckRate(t *testing.T) {
	ex := explorerLike(t, testExplorer(t), nil)
	out := make([]Prediction, ex.StudySpace.Size())
	if err := ex.ExhaustivePredictInto(context.Background(), "gzip", out); err != nil {
		t.Fatal(err)
	}
	// 262,500 points at the default interval of 1024 → ~256 checks.
	want := int64(len(out)) / eval.DefaultModelGuardInterval
	if got := ex.ModelStats().GuardChecks; got < want-1 || got > want+1 {
		t.Fatalf("sweep made %d guard checks, want about %d", got, want)
	}
}

// TestSimFastPathVsDisabledIdentical compares the simulator's production
// path (pooled scratch + memoized outcome masks) against sim.Run, the
// reference full-warmup path, through the public Explorer surface, for
// bit-identical output, and checks the outcome memo actually engaged.
func TestSimFastPathVsDisabledIdentical(t *testing.T) {
	opts := DefaultOptions()
	opts.TraceLen = 20000
	opts.Benchmarks = []string{"gzip", "mcf"}
	fast, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}

	space := fast.StudySpace
	points := space.SampleUAR(5, 7)
	for _, bench := range opts.Benchmarks {
		tr, err := trace.ForBenchmark(bench, opts.TraceLen)
		if err != nil {
			t.Fatal(err)
		}
		for _, pt := range points {
			cfg := space.Config(pt)
			// Vary width at fixed cache geometry so the explorer sees
			// warm-key reuse across distinct requests.
			for _, width := range []int{cfg.Width, cfg.Width * 2} {
				c := cfg
				c.Width = width
				fb, fw, err := fast.Simulate(c, bench)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := sim.Run(c, tr)
				if err != nil {
					t.Fatal(err)
				}
				if sb, sw := ref.BIPS, power.Watts(ref); fb != sb || fw != sw {
					t.Fatalf("%s %v: explorer (%v, %v), sim.Run (%v, %v)",
						bench, c, fb, fw, sb, sw)
				}
			}
		}
	}
	if st := fast.SimStats(); st.WarmHits == 0 {
		t.Fatal("explorer recorded no warm hits")
	}
}
