package power

import (
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/sim"
	"repro/internal/trace"
)

func runFor(t *testing.T, cfg arch.Config, bench string, n int) *sim.Result {
	t.Helper()
	tr, err := trace.ForBenchmark(bench, n)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestBreakdownComponentsPositive(t *testing.T) {
	res := runFor(t, arch.Baseline(), "gcc", 20000)
	b := Estimate(res)
	comps := map[string]float64{
		"FrontEnd": b.FrontEnd, "RegFile": b.RegFile, "IssueQ": b.IssueQ,
		"FuncUnits": b.FuncUnits, "LSQ": b.LSQ, "Predictor": b.Predictor,
		"IL1": b.IL1, "DL1": b.DL1, "L2": b.L2,
		"Clock": b.Clock, "Leakage": b.Leakage,
	}
	for name, v := range comps {
		if v <= 0 {
			t.Errorf("component %s = %v, want > 0", name, v)
		}
	}
	if b.Memory < 0 {
		t.Errorf("Memory = %v, want >= 0", b.Memory)
	}
}

func TestTotalSumsComponents(t *testing.T) {
	res := runFor(t, arch.Baseline(), "gzip", 20000)
	b := Estimate(res)
	sum := b.FrontEnd + b.RegFile + b.IssueQ + b.FuncUnits + b.LSQ +
		b.Predictor + b.IL1 + b.DL1 + b.L2 + b.Memory + b.Clock + b.Leakage
	if diff := b.Total() - sum; diff != 0 {
		t.Fatalf("Total differs from component sum by %v", diff)
	}
	if Watts(res) != b.Total() {
		t.Fatal("Watts disagrees with Estimate().Total()")
	}
}

func TestBaselinePowerRange(t *testing.T) {
	// The POWER4-like baseline should land in the tens of watts, the
	// paper's regime for mid-range designs.
	res := runFor(t, arch.Baseline(), "ammp", 50000)
	w := Watts(res)
	if w < 10 || w > 80 {
		t.Fatalf("baseline power = %v W, want 10-80", w)
	}
}

func TestWiderCostsSuperlinearPower(t *testing.T) {
	s := arch.ExplorationSpace()
	base := arch.BaselinePoint(s)
	narrow := base
	narrow[arch.AxisWidth] = 0
	wide := base
	wide[arch.AxisWidth] = 2
	rn := runFor(t, s.Config(narrow), "mesa", 30000)
	rw := runFor(t, s.Config(wide), "mesa", 30000)
	pn, pw := Watts(rn), Watts(rw)
	if pw <= pn {
		t.Fatalf("8-wide power %v should exceed 2-wide %v", pw, pn)
	}
	// Superlinear: quadrupling width should more than double power.
	if pw < 2*pn {
		t.Fatalf("width power scaling too weak: %v -> %v", pn, pw)
	}
	// Performance should not grow as fast as power (bips^3/w motivation).
	if rw.BIPS/rn.BIPS > pw/pn {
		t.Fatalf("width gained more bips (%vx) than power (%vx); superlinear cost missing",
			rw.BIPS/rn.BIPS, pw/pn)
	}
}

func TestDeeperCostsPower(t *testing.T) {
	deep := arch.Baseline()
	deep.DepthFO4 = 12
	shallow := arch.Baseline()
	shallow.DepthFO4 = 30
	pd := Watts(runFor(t, deep, "gzip", 30000))
	ps := Watts(runFor(t, shallow, "gzip", 30000))
	if pd <= ps*1.5 {
		t.Fatalf("deep pipe power %v should far exceed shallow %v", pd, ps)
	}
}

func TestBiggerCachesCostPower(t *testing.T) {
	small := arch.Baseline()
	small.IL1KB, small.DL1KB, small.L2KB = 16, 8, 256
	big := arch.Baseline()
	big.IL1KB, big.DL1KB, big.L2KB = 256, 128, 4096
	// gzip barely misses, so the power delta is mostly leakage + access
	// energy: big caches must still cost more.
	psmall := Watts(runFor(t, small, "gzip", 30000))
	pbig := Watts(runFor(t, big, "gzip", 30000))
	if pbig <= psmall {
		t.Fatalf("big caches power %v should exceed small %v", pbig, psmall)
	}
}

func TestMemoryBoundWorkloadBurnsMemoryPower(t *testing.T) {
	cfg := arch.Baseline()
	cfg.L2KB = 256
	mcf := Estimate(runFor(t, cfg, "mcf", 50000))
	gzip := Estimate(runFor(t, cfg, "gzip", 50000))
	if mcf.Memory <= gzip.Memory {
		t.Fatalf("mcf memory power %v should exceed gzip %v", mcf.Memory, gzip.Memory)
	}
}

func TestClockGatingReducesIdlePower(t *testing.T) {
	// mcf (low IPC) should burn less clock power than mesa (high IPC) on
	// the same configuration, because idle cycles gate the clock.
	cfg := arch.Baseline()
	mcf := Estimate(runFor(t, cfg, "mcf", 30000))
	mesa := Estimate(runFor(t, cfg, "mesa", 30000))
	if mcf.Clock >= mesa.Clock {
		t.Fatalf("gated clock power (mcf %v) should be below busy (mesa %v)", mcf.Clock, mesa.Clock)
	}
}

// Property: power is positive and finite for any design in the space.
func TestQuickPowerPositive(t *testing.T) {
	s := arch.TableOneSpace()
	levels := s.Levels()
	tr, err := trace.ForBenchmark("twolf", 5000)
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw [arch.NumAxes]uint8) bool {
		var p arch.Point
		for a := range p {
			p[a] = int(raw[a]) % levels[a]
		}
		res, err := sim.Run(s.Config(p), tr)
		if err != nil {
			return false
		}
		w := Watts(res)
		return w > 0 && w < 1000
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEstimate(b *testing.B) {
	tr, err := trace.ForBenchmark("gcc", 20000)
	if err != nil {
		b.Fatal(err)
	}
	res, err := sim.Run(arch.Baseline(), tr)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Estimate(res)
	}
}

// TestBreakdownProperties runs seeded random Table 1 designs on every
// benchmark at short traces, each at all three width levels, and checks
// the trends DESIGN.md §1 relies on: no component is negative, the
// total is at least the leakage floor, and neither leakage nor total
// power falls as the design widens with the other axes fixed.
func TestBreakdownProperties(t *testing.T) {
	s := arch.TableOneSpace()
	widths := s.Levels()[arch.AxisWidth]
	points := s.SampleUAR(8, 2007)
	for _, bench := range trace.Benchmarks() {
		tr, err := trace.ForBenchmark(bench, 3000)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range points {
			prevLeak, prevTotal := 0.0, 0.0
			for w := 0; w < widths; w++ {
				p[arch.AxisWidth] = w
				cfg := s.Config(p)
				res, err := sim.Run(cfg, tr)
				if err != nil {
					t.Fatal(err)
				}
				b := Estimate(res)
				for name, v := range map[string]float64{
					"FrontEnd": b.FrontEnd, "RegFile": b.RegFile, "IssueQ": b.IssueQ,
					"FuncUnits": b.FuncUnits, "LSQ": b.LSQ, "Predictor": b.Predictor,
					"IL1": b.IL1, "DL1": b.DL1, "L2": b.L2, "Memory": b.Memory,
					"Clock": b.Clock, "Leakage": b.Leakage,
				} {
					if !(v >= 0) {
						t.Errorf("%s on %s: %s = %v, want >= 0", bench, cfg, name, v)
					}
				}
				if b.Total() < b.Leakage {
					t.Errorf("%s on %s: total %v W below leakage %v W", bench, cfg, b.Total(), b.Leakage)
				}
				if b.Leakage < prevLeak {
					t.Errorf("%s on %s: leakage %v W fell from %v W one width level narrower",
						bench, cfg, b.Leakage, prevLeak)
				}
				if b.Total() < prevTotal {
					t.Errorf("%s on %s: total %v W fell from %v W one width level narrower",
						bench, cfg, b.Total(), prevTotal)
				}
				prevLeak, prevTotal = b.Leakage, b.Total()
			}
		}
	}
}
