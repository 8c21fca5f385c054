package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDelayRoundTrip(t *testing.T) {
	for _, bips := range []float64{0.1, 1, 2.5} {
		d := Delay(bips)
		if got := TraceInstructions / (d * 1e9); math.Abs(got-bips) > 1e-12 {
			t.Fatalf("round trip %v -> %v -> %v", bips, d, got)
		}
	}
}

func TestDelayKnownValue(t *testing.T) {
	// 1 bips executes 100M instructions in 0.1 s.
	if got := Delay(1); math.Abs(got-0.1) > 1e-15 {
		t.Fatalf("Delay(1) = %v, want 0.1", got)
	}
}

func TestBIPS3W(t *testing.T) {
	if got := BIPS3W(2, 4); got != 2 {
		t.Fatalf("BIPS3W(2,4) = %v, want 2", got)
	}
}

func TestRelativeEfficiency(t *testing.T) {
	// Doubling bips at equal power is 8x efficiency.
	if got := BIPS3W(2, 10) / BIPS3W(1, 10); math.Abs(got-8) > 1e-12 {
		t.Fatalf("efficiency ratio = %v, want 8", got)
	}
	// Halving power at equal bips is 2x.
	if got := BIPS3W(1, 5) / BIPS3W(1, 10); math.Abs(got-2) > 1e-12 {
		t.Fatalf("efficiency ratio = %v, want 2", got)
	}
}

func TestPanics(t *testing.T) {
	for _, f := range []func(){
		func() { Delay(0) },
		func() { Delay(-1) },
		func() { BIPS3W(0, 1) },
		func() { BIPS3W(1, 0) },
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

// Property: BIPS3W is voltage-scaling invariant in spirit — scaling bips
// by s and watts by s^3 leaves the metric unchanged.
func TestQuickVoltageInvariance(t *testing.T) {
	f := func(bipsRaw, wattsRaw, sRaw uint16) bool {
		bips := 0.1 + float64(bipsRaw)/1000
		watts := 1 + float64(wattsRaw)/100
		s := 0.5 + float64(sRaw)/65535
		a := BIPS3W(bips, watts)
		b := BIPS3W(bips*s, watts*s*s*s)
		return math.Abs(a-b)/a < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: delay is strictly decreasing in bips.
func TestQuickDelayMonotone(t *testing.T) {
	f := func(aRaw, bRaw uint16) bool {
		a := 0.01 + float64(aRaw)/1000
		b := a + 0.01 + float64(bRaw)/1000
		return Delay(b) < Delay(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
