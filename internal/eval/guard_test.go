package eval

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/fault"
	"repro/internal/power"
	"repro/internal/regression"
	"repro/internal/sim"
)

func TestGuardrailTickSemantics(t *testing.T) {
	g := NewGuardrail(4)
	var fired []int
	for i := 1; i <= 12; i++ {
		if g.Tick() {
			fired = append(fired, i)
		}
	}
	if len(fired) != 3 || fired[0] != 4 || fired[1] != 8 || fired[2] != 12 {
		t.Fatalf("interval-4 guard ticked on %v", fired)
	}

	// A batch counts every boundary it crosses, however large, and
	// shares the counter with single ticks.
	g = NewGuardrail(100)
	if got := g.TickCount(99); got != 0 {
		t.Fatalf("TickCount(99) = %d before the boundary", got)
	}
	if !g.Tick() {
		t.Fatal("Tick missed the boundary a batch led up to")
	}
	if got := g.TickCount(250); got != 2 {
		t.Fatalf("TickCount(250) from 100 = %d, want 2", got)
	}

	// Nil and disabled guards never check and never degrade.
	var nilG *Guardrail
	if nilG.Tick() || nilG.TickCount(10) != 0 || nilG.Degraded() {
		t.Fatal("nil guard is not inert")
	}
	nilG.Record(true)
	if off := NewGuardrail(0); off.Tick() || off.TickCount(1000) != 0 {
		t.Fatal("interval-0 guard checks")
	}
}

// TestGuardrailTickCountExact pins the batch-kernel sampling contract:
// TickCount returns every boundary a batch crosses, so the per-point
// check rate is one-in-interval no matter how the caller slices its
// batches, never collapsing a multi-interval batch into a single check.
func TestGuardrailTickCountExact(t *testing.T) {
	g := NewGuardrail(100)
	if got := g.TickCount(99); got != 0 {
		t.Fatalf("TickCount(99) = %d before the boundary", got)
	}
	if got := g.TickCount(1); got != 1 {
		t.Fatalf("TickCount(1) at the boundary = %d, want 1", got)
	}
	// A 1000-point batch at interval 100 crosses ten boundaries.
	if got := g.TickCount(1000); got != 10 {
		t.Fatalf("TickCount(1000) = %d, want 10", got)
	}
	if got := g.TickCount(0); got != 0 {
		t.Fatalf("TickCount(0) = %d, want 0", got)
	}
	// Across any slicing of the same range the total check count is
	// identical: 10,000 points at interval 100 → 100 checks.
	for _, chunk := range []int64{1, 7, 100, 512, 10_000} {
		g := NewGuardrail(100)
		var total, left int64 = 0, 10_000
		for left > 0 {
			n := chunk
			if n > left {
				n = left
			}
			total += g.TickCount(n)
			left -= n
		}
		if total != 100 {
			t.Fatalf("chunk %d: %d checks over 10k points at interval 100, want 100", chunk, total)
		}
	}
}

func TestGuardrailRecordTripsPermanently(t *testing.T) {
	g := NewGuardrail(1)
	g.Record(false)
	if g.Degraded() {
		t.Fatal("clean check degraded the guard")
	}
	g.Record(true)
	if !g.Degraded() {
		t.Fatal("divergence did not trip the guard")
	}
	g.Record(false)
	if !g.Degraded() {
		t.Fatal("guard untripped itself")
	}
	checks, div, degraded := g.Stats()
	if checks != 3 || div != 1 || !degraded {
		t.Fatalf("stats = %d/%d/%v, want 3/1/true", checks, div, degraded)
	}
}

// TestSimulatorGuardCatchesFlippedFastPath injects a single bit flip
// into the simulator's fast-path result and checks the guardrail
// catches it, returns the reference numbers, and degrades the backend
// onto the reference path for the rest of the run.
func TestSimulatorGuardCatchesFlippedFastPath(t *testing.T) {
	withPlan(t, &fault.Plan{Rules: []fault.Rule{
		{Site: "eval.sim.fast", Kind: fault.KindFlip, Every: 1, Count: 1},
	}})
	s := NewSimulator(2000)
	s.SetGuardInterval(1) // check every run; the flip must not escape
	cfg := arch.Baseline()

	tr, err := s.traceFor("gzip")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sim.Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	wantB, wantW := ref.BIPS, power.Watts(ref)

	b, w, err := s.Evaluate(cfg, "gzip")
	if err != nil {
		t.Fatal(err)
	}
	if b != wantB || w != wantW {
		t.Fatalf("guarded Evaluate returned corrupted (%v, %v), want reference (%v, %v)", b, w, wantB, wantW)
	}
	checks, div, degraded := s.GuardStats()
	if checks != 1 || div != 1 || !degraded {
		t.Fatalf("guard stats = %d/%d/%v after flip, want 1/1/true", checks, div, degraded)
	}

	// Degraded: later runs take the reference path (no further checks)
	// and stay correct.
	b, w, err = s.Evaluate(cfg, "gzip")
	if err != nil {
		t.Fatal(err)
	}
	if b != wantB || w != wantW {
		t.Fatalf("degraded Evaluate = (%v, %v), want (%v, %v)", b, w, wantB, wantW)
	}
	if checks2, _, _ := s.GuardStats(); checks2 != checks {
		t.Fatalf("degraded backend kept cross-checking (%d checks)", checks2)
	}
}

// TestModelsGuardCatchesFlippedCompiledPath is the same contract for the
// compiled-model fast path: a flipped compiled prediction is caught,
// the interpreted numbers are returned, and the backend degrades onto
// the interpreted path.
func TestModelsGuardCatchesFlippedCompiledPath(t *testing.T) {
	withPlan(t, &fault.Plan{Rules: []fault.Rule{
		{Site: "eval.model.compiled", Kind: fault.KindFlip, Every: 1, Count: 1},
	}})
	perf, pow, space := fitTestModels(t)
	pair, err := CompilePair(perf, pow, space)
	if err != nil {
		t.Fatal(err)
	}
	m := NewModels(func(bench string) (*regression.Model, *regression.Model, error) {
		return perf, pow, nil
	})
	m.LookupCompiled = func(bench string) *PairPlan { return pair }
	m.SetGuardInterval(1)

	cfg := space.Config(arch.Point{1, 1, 1, 1, 1, 1, 1})
	wantB, wantW := PredictInterpreted(perf, pow, cfg)

	b, w, err := m.Evaluate(cfg, "gzip")
	if err != nil {
		t.Fatal(err)
	}
	if b != wantB || w != wantW {
		t.Fatalf("guarded Evaluate returned corrupted (%v, %v), want interpreted (%v, %v)", b, w, wantB, wantW)
	}
	checks, div, degraded := m.GuardStats()
	if checks != 1 || div != 1 || !degraded {
		t.Fatalf("guard stats = %d/%d/%v after flip, want 1/1/true", checks, div, degraded)
	}
	b, w, err = m.Evaluate(cfg, "gzip")
	if err != nil {
		t.Fatal(err)
	}
	if b != wantB || w != wantW {
		t.Fatalf("degraded Evaluate = (%v, %v), want (%v, %v)", b, w, wantB, wantW)
	}
}
