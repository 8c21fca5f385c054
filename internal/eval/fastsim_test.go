package eval

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestSimulatorFastPathMatchesDisabled pins the backend-level contract:
// Evaluate, which runs through the memoizing sim.Runner, returns
// (bips, watts) bit-identical to sim.Run, the reference full-warmup path,
// for the same requests.
func TestSimulatorFastPathMatchesDisabled(t *testing.T) {
	fast := NewSimulator(20000)
	space := arch.ExplorationSpace()
	for _, bench := range []string{"gzip", "mcf"} {
		tr, err := trace.ForBenchmark(bench, fast.TraceLen)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range space.SampleUAR(4, 99) {
			cfg := space.Config(p)
			ref, err := sim.Run(cfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			wb, ww := ref.BIPS, power.Watts(ref)
			// Twice through the backend: the run that computes the key's
			// outcome mask and the run that replays the memoized one must
			// both match the reference path.
			for pass := 0; pass < 2; pass++ {
				gb, gw, err := fast.Evaluate(cfg, bench)
				if err != nil {
					t.Fatal(err)
				}
				if gb != wb || gw != ww {
					t.Fatalf("%s %v pass %d: runner (%v, %v), sim.Run (%v, %v)",
						bench, cfg, pass, gb, gw, wb, ww)
				}
			}
		}
	}
	hits, misses := fast.WarmStats()
	if hits == 0 || misses == 0 {
		t.Fatalf("warm stats hits=%d misses=%d, want both > 0", hits, misses)
	}
}

// TestEngineStatsExposeWarmCounters checks that an engine over the
// simulator backend surfaces its outcome-memo counters and component
// walks through Stats and differences them through StatsEpoch.
func TestEngineStatsExposeWarmCounters(t *testing.T) {
	s := NewSimulator(20000)
	e := NewEngine(s, Options{Workers: 1, Name: "sim"})
	cfg := arch.Baseline()

	// Same geometry, different widths: distinct requests (no engine cache
	// hits) that share one warm key, so the second is a warm hit.
	a, b := cfg, cfg
	b.Width = cfg.Width * 2
	for _, c := range []arch.Config{a, b} {
		if _, _, err := s.Evaluate(c, "gzip"); err != nil {
			t.Fatal(err)
		}
	}
	// The one key was composed from three component passes: the trace's
	// branch pass, its IL1 pass and its DL1 pass.
	st := e.Stats()
	if st.WarmHits != 1 || st.WarmMisses != 1 || st.OutcomeWalks != 3 {
		t.Fatalf("engine stats warm = %d/%d, walks %d, want 1/1, 3", st.WarmHits, st.WarmMisses, st.OutcomeWalks)
	}
	ep := e.StatsEpoch()
	if ep.WarmHits != 1 || ep.WarmMisses != 1 || ep.OutcomeWalks != 3 {
		t.Fatalf("first epoch warm = %d/%d, walks %d, want 1/1, 3", ep.WarmHits, ep.WarmMisses, ep.OutcomeWalks)
	}
	if _, _, err := s.Evaluate(b, "gzip"); err != nil {
		t.Fatal(err)
	}
	ep = e.StatsEpoch()
	if ep.WarmHits != 1 || ep.WarmMisses != 0 || ep.OutcomeWalks != 0 {
		t.Fatalf("second epoch warm = %d/%d, walks %d, want 1/0, 0", ep.WarmHits, ep.WarmMisses, ep.OutcomeWalks)
	}
}
