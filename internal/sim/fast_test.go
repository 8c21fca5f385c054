package sim

import (
	"fmt"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/trace"
)

// fullRun simulates with the seed path: fresh scratch, full warmup walk.
func fullRun(t *testing.T, cfg arch.Config, tr *trace.Trace) *Result {
	t.Helper()
	var s Scratch
	out := new(Result)
	if err := s.Run(out, cfg, tr); err != nil {
		t.Fatal(err)
	}
	return out
}

func testTrace(t *testing.T, bench string) *trace.Trace {
	t.Helper()
	tr, err := trace.ForBenchmark(bench, testTraceLen)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestFastPathGolden pins the Runner to the seed path bit-for-bit: for
// sampled configurations across every benchmark, a Runner (memoized
// outcome masks, pooled scratch) must reproduce the full-warmup result
// exactly — same cycles, same activity, same floats.
func TestFastPathGolden(t *testing.T) {
	space := arch.ExplorationSpace()
	points := space.SampleUAR(6, 42)
	r := NewRunner()
	for _, bench := range trace.Benchmarks() {
		tr := testTrace(t, bench)
		for _, p := range points {
			cfg := space.Config(p)
			want := fullRun(t, cfg, tr)
			// Twice per key: the first run computes the key's outcome mask
			// (miss) and the second replays the memoized one (hit); both
			// must match the seed.
			for pass := 0; pass < 2; pass++ {
				got := new(Result)
				err := r.RunInto(got, cfg, tr)
				if err != nil {
					t.Fatal(err)
				}
				if *got != *want {
					t.Fatalf("%s %v pass %d: fast path diverged\n got %+v\nwant %+v",
						bench, cfg, pass, got, want)
				}
			}
		}
	}
	hits, misses := r.WarmStats()
	if hits == 0 || misses == 0 {
		t.Fatalf("warm stats hits=%d misses=%d, want both > 0", hits, misses)
	}
}

// TestWarmStateCrossGeometry interleaves runs with distinct cache
// geometries through one Runner and checks each against a fresh
// full-warmup run: a memoized outcome mask must never leak between keys.
func TestWarmStateCrossGeometry(t *testing.T) {
	tr := testTrace(t, "mcf")
	base := arch.Baseline()
	small := base
	small.IL1KB, small.DL1KB, small.L2KB = 16, 8, 256
	large := base
	large.IL1KB, large.DL1KB, large.L2KB, large.DL1Assoc = 256, 128, 4096, 4
	cfgs := []arch.Config{small, base, large, small, large, base, small}

	r := NewRunner()
	for i, cfg := range cfgs {
		want := fullRun(t, cfg, tr)
		got := new(Result)
		err := r.RunInto(got, cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		if *got != *want {
			t.Fatalf("run %d (%v): outcome mask leaked across geometries\n got %+v\nwant %+v",
				i, cfg, got, want)
		}
	}
	hits, _ := r.WarmStats()
	if hits != int64(len(cfgs)-3) {
		t.Fatalf("warm hits = %d, want %d (every revisit of a geometry)", hits, len(cfgs)-3)
	}
}

// TestWarmBudgetFallback pins the over-budget behaviour. With a zero
// budget nothing is memoized — every run walks its own component passes
// and composes its own outcome mask into scratch. With a budget that
// holds the component passes but no mask, the passes are walked once
// and every run composes its mask from them into scratch. Either way
// results are bit-identical to the seed path, and the budget charges
// exactly what is memoized.
func TestWarmBudgetFallback(t *testing.T) {
	tr := testTrace(t, "gzip")
	cfg := arch.Baseline()
	want := fullRun(t, cfg, tr)

	// A generous runner memoizes the three passes and the mask; its
	// charge less the mask's one byte per timed instruction is what the
	// passes alone cost.
	full := NewRunner()
	if err := full.RunInto(new(Result), cfg, tr); err != nil {
		t.Fatal(err)
	}
	timed := int64(tr.Len() - warmupLen(tr.Len()))
	passBytes := full.used.Load() - timed

	for _, c := range []struct {
		budget, walks int64
	}{
		{0, 3 * 3},     // every run walks all three passes
		{passBytes, 3}, // the passes are walked once; no mask fits
	} {
		r := NewRunner()
		r.budget = c.budget
		for i := 0; i < 3; i++ {
			got := new(Result)
			err := r.RunInto(got, cfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			if *got != *want {
				t.Fatalf("budget %d, run %d: over-budget path diverged", c.budget, i)
			}
		}
		hits, misses := r.WarmStats()
		if hits != 0 || misses != 3 {
			t.Fatalf("budget %d: warm stats hits=%d misses=%d, want 0/3", c.budget, hits, misses)
		}
		if used := r.used.Load(); used != c.budget {
			t.Fatalf("budget %d charged %d bytes, want all of it", c.budget, used)
		}
		if walks := r.OutcomeWalks(); walks != c.walks {
			t.Fatalf("budget %d: %d outcome walks, want %d", c.budget, walks, c.walks)
		}
	}
}

// TestRunZeroAllocs pins the allocation contract: once scratch and the
// outcome memo reach steady state, simulating a run performs zero heap
// allocations — on the Runner fast path, the package Run path, and the
// caller-owned-Scratch path alike. GC is disabled for the measurement so
// a collection cannot clear the sync.Pool mid-run and charge the refill
// to us.
func TestRunZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed by race-detector instrumentation")
	}
	tr := testTrace(t, "gcc")
	cfg := arch.Baseline()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	r := NewRunner()
	var out Result
	// Warm the pool, the memo and the scratch arrays.
	for i := 0; i < 3; i++ {
		if err := r.RunInto(&out, cfg, tr); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(5, func() {
		if err := r.RunInto(&out, cfg, tr); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("Runner.RunInto allocates %v per steady-state run, want 0", avg)
	}

	var s Scratch
	if err := s.Run(&out, cfg, tr); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(5, func() {
		if err := s.Run(&out, cfg, tr); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("Scratch.Run allocates %v per steady-state run, want 0", avg)
	}

	if err := RunInto(&out, cfg, tr); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(5, func() {
		if err := RunInto(&out, cfg, tr); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("RunInto allocates %v per steady-state run, want 0", avg)
	}
}

// BenchmarkRunnerWarm measures the replay kernel in steady state: one
// Runner, its one warm key's outcome mask memoized, replays 16 sampled
// TableOneSpace configurations in rotation. Their cache geometry is set
// to the baseline's so they share that key; every other axis varies as
// in a training sample. The trace is gcc at the paper's 100k
// instructions. ns/timed-inst is the cost per replayed instruction.
func BenchmarkRunnerWarm(b *testing.B) {
	tr, err := trace.ForBenchmark("gcc", 100000)
	if err != nil {
		b.Fatal(err)
	}
	base := arch.Baseline()
	space := arch.TableOneSpace()
	var cfgs []arch.Config
	for _, pt := range space.SampleUAR(16, 7) {
		cfg := space.Config(pt)
		cfg.IL1KB, cfg.DL1KB, cfg.L2KB = base.IL1KB, base.DL1KB, base.L2KB
		cfgs = append(cfgs, cfg)
	}
	r := NewRunner()
	var out Result
	for _, cfg := range cfgs {
		if err := r.RunInto(&out, cfg, tr); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.RunInto(&out, cfgs[i%len(cfgs)], tr); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(out.Instructions)), "ns/timed-inst")
}

// TestReplayAcrossConfigs pins the property the Runner rests on: cache
// and predictor outcomes computed once per warm key (trace, cache
// geometry) replay bit-identically under configurations with different
// widths, depths, latencies, pools and queues. The mask the first run
// computes is the one every later config replays.
func TestReplayAcrossConfigs(t *testing.T) {
	tr := testTrace(t, "gcc")
	base := arch.Baseline()
	wide := base
	wide.Width, wide.FUPerKind, wide.LSQ, wide.SQ = base.Width*2, base.FUPerKind*2, base.LSQ*2, base.SQ*2
	deep := base
	deep.DepthFO4 = 12
	deep.GPR, deep.FPR = base.GPR+30, base.FPR+30

	r := NewRunner()
	for i, cfg := range []arch.Config{base, wide, deep, base} {
		want := fullRun(t, cfg, tr)
		got := new(Result)
		err := r.RunInto(got, cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		if *got != *want {
			t.Fatalf("run %d (%v): replayed outcomes diverged from the seed path\n got %+v\nwant %+v",
				i, cfg, got, want)
		}
	}
	hits, misses := r.WarmStats()
	if hits != 3 || misses != 1 {
		t.Fatalf("warm stats hits=%d misses=%d, want 3/1 (one key, four configs)", hits, misses)
	}
}

// TestRunnerConcurrent runs three configurations that share two warm keys
// from eight goroutines on one Runner: every result must equal the seed
// path's, and each key's outcome mask must be computed exactly once
// however the goroutines race on it.
func TestRunnerConcurrent(t *testing.T) {
	tr := testTrace(t, "gcc")
	base := arch.Baseline()
	wide := base // same geometry as base: shares its warm key
	wide.Width, wide.FUPerKind = base.Width*2, base.FUPerKind*2
	small := base
	small.IL1KB, small.DL1KB, small.L2KB = 16, 8, 256
	cfgs := []arch.Config{base, wide, small}
	want := make([]*Result, len(cfgs))
	for i, cfg := range cfgs {
		want[i] = fullRun(t, cfg, tr)
	}

	r := NewRunner()
	const goroutines, rounds = 8, 3
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var out Result
			for k := 0; k < rounds*len(cfgs); k++ {
				i := (g + k) % len(cfgs)
				if err := r.RunInto(&out, cfgs[i], tr); err != nil {
					errs <- err
					return
				}
				if out != *want[i] {
					errs <- fmt.Errorf("goroutine %d, %v: got %+v, want %+v", g, cfgs[i], out, *want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	hits, misses := r.WarmStats()
	if misses != 2 || hits != goroutines*rounds*int64(len(cfgs))-2 {
		t.Fatalf("warm stats hits=%d misses=%d, want %d/2 (one mask per key)",
			hits, misses, goroutines*rounds*len(cfgs)-2)
	}
}

// TestReplayMatchesReferenceProperty is the seeded property test behind
// the replay kernel: on every benchmark, for 64 random TableOneSpace
// points plus a design whose every resource ring has one slot, out of
// order and in order, Runner.Run must return the Result sim.Run returns.
// One Runner memoizes masks (its first run of a key computes, later runs
// replay). A second with a zero budget, which recomputes the mask and
// activity into scratch on every run, takes every eighth design, the
// one-slot design among them: it shares the replay kernel and differs
// only in where the mask lives.
func TestReplayMatchesReferenceProperty(t *testing.T) {
	space := arch.TableOneSpace()
	cfgs := make([]arch.Config, 0, 65)
	for _, p := range space.SampleUAR(64, 2007) {
		cfgs = append(cfgs, space.Config(p))
	}
	tiny := space.Config(arch.Point{})
	tiny.Width, tiny.LSQ, tiny.SQ, tiny.FUPerKind = 1, 1, 1, 1
	tiny.GPR, tiny.FPR, tiny.SPR = ArchGPR+1, ArchFPR+1, ArchSPR+1
	tiny.ResvBR, tiny.ResvFX, tiny.ResvFP = 1, 1, 1
	cfgs = append(cfgs, tiny)

	memo, scratch := NewRunner(), NewRunner()
	scratch.budget = 0
	for _, bench := range trace.Benchmarks() {
		tr := testTrace(t, bench)
		for k, cfg := range cfgs {
			runners := []*Runner{memo}
			if k%8 == 0 {
				runners = append(runners, scratch)
			}
			for _, inOrder := range []bool{false, true} {
				cfg.InOrder = inOrder
				want, err := Run(cfg, tr)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range runners {
					got := new(Result)
					err := r.RunInto(got, cfg, tr)
					if err != nil {
						t.Fatal(err)
					}
					if *got != *want {
						t.Fatalf("%s %v (budget %d): replay diverged from the reference\n got %+v\nwant %+v",
							bench, cfg, r.budget, got, want)
					}
				}
			}
		}
	}
	if hits, _ := memo.WarmStats(); hits == 0 {
		t.Fatal("memoizing runner never replayed a memoized mask")
	}
	if hits, _ := scratch.WarmStats(); hits != 0 {
		t.Fatalf("zero-budget runner replayed %d memoized masks, want 0", hits)
	}
}

// TestRingNext pins the branch-free ring advance: at every capacity
// from 1 to 8, positions run 0, 1, ..., n-1 and wrap to 0.
func TestRingNext(t *testing.T) {
	for n := 1; n <= 8; n++ {
		pos := 0
		for k := 1; k <= 3*n; k++ {
			pos = next(pos, n)
			if pos != k%n {
				t.Fatalf("capacity %d, step %d: next = %d, want %d", n, k, pos, k%n)
			}
		}
	}
}

// TestStoreSink pins the store route: stores take the one-slot sink as
// their rename pool and commit to it through keep = 0, so however late
// they retire its earliest returns its argument and the slot stays 0.
// Every other kind commits to a real pool through keep = ^0.
func TestStoreSink(t *testing.T) {
	p, err := Derive(arch.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	var s Scratch
	rings := s.prepare(p, 100, 30)
	rt := routes(&rings)
	store := rt[trace.OpStore]
	if len(store.pool.slots) != 1 || store.keep != 0 {
		t.Fatalf("store pool has %d slots and keep %#x, want 1 and 0", len(store.pool.slots), store.keep)
	}
	for _, k := range []trace.OpKind{trace.OpInt, trace.OpFP, trace.OpLoad, trace.OpBranch} {
		if rt[k].pool == store.pool || rt[k].keep != ^0 {
			t.Fatalf("%v: pool is the sink or keep = %#x, want a real pool and ^0", k, rt[k].keep)
		}
	}
	for _, ret := range []int64{1, 7, 1 << 20, 1 << 40} {
		store.pool.commit(ret & store.keep)
		if got := store.pool.earliest(ret - 1); got != ret-1 {
			t.Fatalf("after a store retiring at %d: sink earliest(%d) = %d", ret, ret-1, got)
		}
	}
	if store.pool.slots[0] != 0 || store.pool.pos != 0 {
		t.Fatalf("sink slot %d pos %d, want 0 0", store.pool.slots[0], store.pool.pos)
	}
}
