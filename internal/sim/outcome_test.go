package sim

import (
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/trace"
)

// outcomes is the single-walk oracle for Runner.outcomes: it reshapes and
// warms the scratch's caches and branch history table exactly as the
// seed path does, then walks the timed region through all of them in
// program order with no timing, writing each instruction's event class
// into mask and counting the activity of the walk.
func (s *Scratch) outcomes(p Params, tr *trace.Trace, mask []byte) (Activity, error) {
	if err := s.configure(p); err != nil {
		return Activity{}, err
	}
	s.warmup(tr)
	n := tr.Len()
	warm := warmupLen(n)
	var act Activity
	for i := warm; i < n; i++ {
		in := &tr.Insts[i]
		c := byte(in.Kind) << cKindShift
		act.Issued++
		act.IL1Access++
		if !s.il1.Access(in.PC) {
			c |= cIL1Miss
			act.IL1Miss++
			act.L2Access++
			if !s.l2.Access(in.PC) {
				c |= cIL2Miss
				act.L2Miss++
				act.MemAccess++
			}
		}
		switch in.Kind {
		case trace.OpInt:
			act.Int++
		case trace.OpFP:
			act.FP++
		case trace.OpLoad, trace.OpStore:
			if in.Kind == trace.OpLoad {
				act.Load++
			} else {
				act.Store++
			}
			act.DL1Access++
			if !s.dl1.Access(in.Addr) {
				c |= cDL1Miss
				act.DL1Miss++
				act.L2Access++
				if !s.l2.Access(in.Addr) {
					c |= cDL2Miss
					act.L2Miss++
					act.MemAccess++
				}
			}
		case trace.OpBranch:
			act.Branch++
			act.BranchLookups++
			if s.bht.Update(in.PC, in.Taken) {
				c |= cMispredict
				act.BranchMispredicts++
			} else if in.Taken {
				c |= cTakenOK
			}
		}
		mask[i-warm] = c
	}
	return act, nil
}

// baselinePoint is the exploration grid's point nearest arch.Baseline:
// 18 FO4, 4-wide, GPR 80, BR 12, 64 KB I-L1, 32 KB D-L1, 2 MB L2.
var baselinePoint = arch.Point{arch.AxisDepth: 2, arch.AxisWidth: 1, arch.AxisRegs: 4, arch.AxisResv: 6, arch.AxisIL1: 2, arch.AxisDL1: 2, arch.AxisL2: 3}

// geometries returns one configuration per cache geometry of the
// exploration space, 5 IL1 × 5 DL1 × 5 L2 = 125, every other axis at the
// baseline.
func geometries(t testing.TB) []Params {
	space := arch.ExplorationSpace()
	levels := space.Levels()
	var ps []Params
	for a := 0; a < levels[arch.AxisIL1]; a++ {
		for b := 0; b < levels[arch.AxisDL1]; b++ {
			for c := 0; c < levels[arch.AxisL2]; c++ {
				pt := baselinePoint
				pt[arch.AxisIL1], pt[arch.AxisDL1], pt[arch.AxisL2] = a, b, c
				p, err := Derive(space.Config(pt))
				if err != nil {
					t.Fatal(err)
				}
				ps = append(ps, p)
			}
		}
	}
	return ps
}

// TestComposedOutcomesMatchSingleWalk pins the factored outcome pass to
// the single walk it replaces: for every cache geometry of the
// exploration space on every benchmark, the class bytes and activity a
// Runner composes from its memoized component passes must equal those
// of one walk through the whole warmed hierarchy. The traces have the
// paper's 100k instructions: at shorter ones an L2 pass that let an
// instruction's data access overtake its fetch still matched. The race
// detector's instrumentation makes the walks about ten times slower, so
// under it the test takes a seeded subset of the geometries.
func TestComposedOutcomesMatchSingleWalk(t *testing.T) {
	const traceLen = 100000
	all := geometries(t)
	ps := all
	if raceEnabled {
		ps = nil
		for _, k := range rand.New(rand.NewSource(2007)).Perm(len(all))[:8] {
			ps = append(ps, all[k])
		}
	}
	r := NewRunner()
	var s, oracle Scratch
	want := make([]byte, traceLen)
	for _, bench := range trace.Benchmarks() {
		tr, err := trace.ForBenchmark(bench, traceLen)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range ps {
			got, act, kept, err := r.outcomes(&s, p, tr, true)
			if err != nil {
				t.Fatal(err)
			}
			if !kept {
				t.Fatalf("%s %v: default budget did not keep the mask", bench, p.Config)
			}
			wantAct, err := oracle.outcomes(p, tr, want)
			if err != nil {
				t.Fatal(err)
			}
			if act != wantAct {
				t.Fatalf("%s %v: composed activity diverged\n got %+v\nwant %+v", bench, p.Config, act, wantAct)
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("%s %v: class of timed instruction %d = %#x, single walk %#x",
						bench, p.Config, j, got[j], want[j])
				}
			}
		}
	}
	if !raceEnabled {
		// One branch pass per trace, one IL1 pass per size and one DL1
		// pass per size, however many of the 125 keys share them.
		if got, want := r.OutcomeWalks(), int64(len(trace.Benchmarks())*(1+5+5)); got != want {
			t.Fatalf("outcome walks = %d, want %d", got, want)
		}
	}
}

// TestL2InclusionProperty checks two physical properties of the
// substrate, seeded over every benchmark and random L1 geometries. LRU
// stack inclusion: with the trace and both L1s fixed, the L2 sees the
// same miss stream whatever its size, and growing the 4-way L2 adds sets
// without removing ways, so every access that hits the smaller L2 hits
// the larger one; Activity.L2Miss must never rise as the L2 grows from
// 256 KB to 4 MB. And no run retires more than Width instructions per
// cycle. The traces have the paper's 100k instructions: at 20k most
// benchmarks' footprints fit the smallest L2, and the misses are the
// same at every size.
func TestL2InclusionProperty(t *testing.T) {
	space := arch.ExplorationSpace()
	levels := space.Levels()
	rng := rand.New(rand.NewSource(2007))
	r := NewRunner()
	for _, bench := range trace.Benchmarks() {
		tr, err := trace.ForBenchmark(bench, 100000)
		if err != nil {
			t.Fatal(err)
		}
		for _, pt := range space.SampleUAR(3, uint64(rng.Int63())) {
			pt[arch.AxisIL1] = rng.Intn(levels[arch.AxisIL1])
			pt[arch.AxisDL1] = rng.Intn(levels[arch.AxisDL1])
			cfg := space.Config(pt)
			cfg.DL1Assoc = []int{0, 1, 4}[rng.Intn(3)]
			prev := int64(-1)
			for l2 := 0; l2 < levels[arch.AxisL2]; l2++ {
				pt[arch.AxisL2] = l2
				cfg.L2KB = space.Config(pt).L2KB
				res := new(Result)
				err := r.RunInto(res, cfg, tr)
				if err != nil {
					t.Fatal(err)
				}
				if prev >= 0 && res.Activity.L2Miss > prev {
					t.Fatalf("%s %v: L2 misses rose to %d from %d at the next smaller L2",
						bench, cfg, res.Activity.L2Miss, prev)
				}
				prev = res.Activity.L2Miss
				if res.IPC > float64(cfg.Width) {
					t.Fatalf("%s %v: IPC %v exceeds width %d", bench, cfg, res.IPC, cfg.Width)
				}
			}
		}
	}
}

// BenchmarkOutcomeKeys measures the factored outcome pass: a fresh
// Runner composes the outcome masks of all 125 cache geometries of gcc
// at the paper's 100k instructions, so each iteration pays for one
// branch pass, five IL1 and five DL1 passes, and 125 L2 passes with
// their compositions. µs/key is the cost per composed key.
func BenchmarkOutcomeKeys(b *testing.B) {
	tr, err := trace.ForBenchmark("gcc", 100000)
	if err != nil {
		b.Fatal(err)
	}
	ps := geometries(b)
	var s Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewRunner()
		for _, p := range ps {
			if _, _, _, err := r.outcomes(&s, p, tr, true); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(ps)), "µs/key")
}
