package cacti

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/arch"
)

func TestAccessTimeMonotoneInSize(t *testing.T) {
	prev := 0.0
	for _, kb := range []int{8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096} {
		ns := AccessTimeNS(kb, 2)
		if ns <= prev {
			t.Fatalf("access time not increasing at %d KB: %v <= %v", kb, ns, prev)
		}
		prev = ns
	}
}

func TestAccessTimeCalibration(t *testing.T) {
	// Table 3 anchors: a 32 KB 2-way L1 should hit in one ~0.76 ns cycle
	// (19 FO4 at 40 ps/FO4); a 2 MB 4-way L2 in roughly 9 cycles.
	period := 0.76
	l1 := CyclesAt(AccessTimeNS(32, 2), period)
	if l1 != 1 {
		t.Fatalf("32KB L1 latency = %d cycles at 19FO4, want 1", l1)
	}
	l2 := CyclesAt(AccessTimeNS(2048, 4), period)
	if l2 < 7 || l2 > 12 {
		t.Fatalf("2MB L2 latency = %d cycles at 19FO4, want ~9", l2)
	}
}

func TestAccessTimeAssocPenalty(t *testing.T) {
	if AccessTimeNS(64, 4) <= AccessTimeNS(64, 1) {
		t.Fatal("higher associativity should cost latency")
	}
}

func TestEnergyMonotone(t *testing.T) {
	if EnergyPerAccessNJ(2048, 4) <= EnergyPerAccessNJ(32, 4) {
		t.Fatal("bigger cache should cost more energy per access")
	}
	if EnergyPerAccessNJ(64, 4) <= EnergyPerAccessNJ(64, 1) {
		t.Fatal("higher associativity should cost more energy")
	}
}

func TestEnergySublinear(t *testing.T) {
	// Doubling capacity should less than double access energy.
	e1 := EnergyPerAccessNJ(256, 2)
	e2 := EnergyPerAccessNJ(512, 2)
	if e2 >= 2*e1 {
		t.Fatalf("energy superlinear: %v -> %v", e1, e2)
	}
}

func TestLeakageLinear(t *testing.T) {
	if LeakageW(64) != 2*LeakageW(32) {
		t.Fatal("leakage should be linear in capacity")
	}
}

func TestCyclesAtFloor(t *testing.T) {
	if CyclesAt(0.1, 1.0) != 1 {
		t.Fatal("cycle floor of 1 violated")
	}
	if CyclesAt(2.5, 1.0) != 3 {
		t.Fatal("ceil conversion wrong")
	}
	if CyclesAt(2.0, 1.0) != 2 {
		t.Fatal("exact conversion wrong")
	}
}

func TestPanicsOnBadInput(t *testing.T) {
	for _, f := range []func(){
		func() { AccessTimeNS(0, 1) },
		func() { AccessTimeNS(32, 0) },
		func() { EnergyPerAccessNJ(-1, 1) },
		func() { LeakageW(0) },
		func() { CyclesAt(1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

// Property: cycle latency never decreases as frequency rises (period
// shrinks), the mechanism behind the paper's depth-cache interaction.
func TestQuickCyclesMonotoneInFrequency(t *testing.T) {
	f := func(kbRaw, fo4Raw uint8) bool {
		kb := 8 << (kbRaw % 10) // 8..4096
		fo4a := 9 + int(fo4Raw%10)*3
		fo4b := fo4a + 3
		ns := AccessTimeNS(kb, 2)
		fast := CyclesAt(ns, float64(fo4a)*0.040)
		slow := CyclesAt(ns, float64(fo4b)*0.040)
		return fast >= slow && slow >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestMonotoneInCapacityOverDesignSpace checks that access time and
// access energy never fall as capacity grows, over every cache size of
// the Table 1 space (all powers of two) at associativity 1, 2 and 4.
func TestMonotoneInCapacityOverDesignSpace(t *testing.T) {
	s := arch.TableOneSpace()
	levels := s.Levels()
	seen := map[int]bool{}
	var p arch.Point
	for ; p[arch.AxisIL1] < levels[arch.AxisIL1]; p[arch.AxisIL1]++ {
		seen[s.Config(p).IL1KB] = true
	}
	p = arch.Point{}
	for ; p[arch.AxisDL1] < levels[arch.AxisDL1]; p[arch.AxisDL1]++ {
		seen[s.Config(p).DL1KB] = true
	}
	p = arch.Point{}
	for ; p[arch.AxisL2] < levels[arch.AxisL2]; p[arch.AxisL2]++ {
		seen[s.Config(p).L2KB] = true
	}
	sizes := make([]int, 0, len(seen))
	for kb := range seen {
		if kb&(kb-1) != 0 {
			t.Fatalf("design-space cache size %d KB is not a power of two", kb)
		}
		sizes = append(sizes, kb)
	}
	sort.Ints(sizes)
	for _, assoc := range []int{1, 2, 4} {
		for i := 1; i < len(sizes); i++ {
			small, big := sizes[i-1], sizes[i]
			if a, b := AccessTimeNS(small, assoc), AccessTimeNS(big, assoc); b < a {
				t.Errorf("%d-way access time falls from %v ns at %d KB to %v ns at %d KB", assoc, a, small, b, big)
			}
			if a, b := EnergyPerAccessNJ(small, assoc), EnergyPerAccessNJ(big, assoc); b < a {
				t.Errorf("%d-way access energy falls from %v nJ at %d KB to %v nJ at %d KB", assoc, a, small, b, big)
			}
		}
	}
}
