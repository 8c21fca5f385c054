package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBetaIncBoundaries(t *testing.T) {
	if BetaInc(2, 3, 0) != 0 {
		t.Fatal("I_0 should be 0")
	}
	if BetaInc(2, 3, 1) != 1 {
		t.Fatal("I_1 should be 1")
	}
}

func TestBetaIncSymmetricCase(t *testing.T) {
	// I_x(1, 1) is the uniform CDF: x itself.
	for _, x := range []float64{0.1, 0.25, 0.5, 0.9} {
		if got := BetaInc(1, 1, x); math.Abs(got-x) > 1e-12 {
			t.Fatalf("I_%v(1,1) = %v", x, got)
		}
	}
	// Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
	for _, x := range []float64{0.2, 0.5, 0.8} {
		lhs := BetaInc(2.5, 4, x)
		rhs := 1 - BetaInc(4, 2.5, 1-x)
		if math.Abs(lhs-rhs) > 1e-12 {
			t.Fatalf("symmetry violated at %v: %v vs %v", x, lhs, rhs)
		}
	}
}

func TestBetaIncKnownValue(t *testing.T) {
	// I_0.5(2, 2) = 0.5 by symmetry; I_x(1, 2) = 1-(1-x)^2.
	if got := BetaInc(2, 2, 0.5); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("I_0.5(2,2) = %v", got)
	}
	x := 0.3
	want := 1 - (1-x)*(1-x)
	if got := BetaInc(1, 2, x); math.Abs(got-want) > 1e-12 {
		t.Fatalf("I_0.3(1,2) = %v, want %v", got, want)
	}
}

func TestBetaIncPanics(t *testing.T) {
	for _, f := range []func(){
		func() { BetaInc(0, 1, 0.5) },
		func() { BetaInc(1, -1, 0.5) },
		func() { BetaInc(1, 1, -0.1) },
		func() { BetaInc(1, 1, 1.1) },
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

func TestStudentTPValueKnownValues(t *testing.T) {
	// With df=1 (Cauchy), t=1 gives p = 0.5.
	if got := StudentTPValue(1, 1); math.Abs(got-0.5) > 1e-10 {
		t.Fatalf("p(t=1, df=1) = %v, want 0.5", got)
	}
	// t=0 is always p=1.
	if got := StudentTPValue(0, 10); math.Abs(got-1) > 1e-12 {
		t.Fatalf("p(t=0) = %v", got)
	}
	// Large t: essentially zero.
	if got := StudentTPValue(50, 20); got > 1e-10 {
		t.Fatalf("p(t=50, df=20) = %v", got)
	}
	// Classic critical value: t=2.086, df=20 -> p ~ 0.05.
	if got := StudentTPValue(2.086, 20); math.Abs(got-0.05) > 0.002 {
		t.Fatalf("p(2.086, 20) = %v, want ~0.05", got)
	}
	if got := StudentTPValue(math.Inf(1), 5); got != 0 {
		t.Fatalf("p(inf) = %v", got)
	}
}

func TestStudentTSymmetric(t *testing.T) {
	for _, tv := range []float64{0.5, 1.3, 2.7} {
		if StudentTPValue(tv, 7) != StudentTPValue(-tv, 7) {
			t.Fatal("two-sided p-value not symmetric")
		}
	}
}

func TestFPValueKnownValues(t *testing.T) {
	// F(1,1): P(F >= 1) = 0.5.
	if got := FPValue(1, 1, 1); math.Abs(got-0.5) > 1e-10 {
		t.Fatalf("P(F>=1; 1,1) = %v", got)
	}
	// Critical value: F(0.95; 3, 10) ~ 3.708.
	if got := FPValue(3.708, 3, 10); math.Abs(got-0.05) > 0.002 {
		t.Fatalf("P(F>=3.708; 3,10) = %v, want ~0.05", got)
	}
	if FPValue(0, 2, 5) != 1 || FPValue(-2, 2, 5) != 1 {
		t.Fatal("non-positive F should give p=1")
	}
}

func TestFTSquaredEquivalence(t *testing.T) {
	// For one numerator df, F = t^2 and the p-values coincide.
	tval, df := 2.3, 14.0
	pt := StudentTPValue(tval, df)
	pf := FPValue(tval*tval, 1, df)
	if math.Abs(pt-pf) > 1e-10 {
		t.Fatalf("t/F equivalence violated: %v vs %v", pt, pf)
	}
}

func TestMomentPanics(t *testing.T) {
	for _, f := range []func(){
		func() { StudentTPValue(1, 0) },
		func() { FPValue(1, 0, 2) },
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

// Property: BetaInc is monotone in x and bounded in [0,1].
func TestQuickBetaIncMonotone(t *testing.T) {
	f := func(aRaw, bRaw, x1Raw, x2Raw uint16) bool {
		a := 0.5 + float64(aRaw%80)/10
		b := 0.5 + float64(bRaw%80)/10
		x1 := float64(x1Raw) / 65535
		x2 := float64(x2Raw) / 65535
		if x1 > x2 {
			x1, x2 = x2, x1
		}
		p1 := BetaInc(a, b, x1)
		p2 := BetaInc(a, b, x2)
		return p1 >= -1e-12 && p2 <= 1+1e-12 && p1 <= p2+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: p-values are in [0,1] and decrease as |t| grows.
func TestQuickTPValueMonotone(t *testing.T) {
	f := func(tRaw, dfRaw uint16) bool {
		tv := float64(tRaw%1000) / 100
		df := 1 + float64(dfRaw%60)
		p1 := StudentTPValue(tv, df)
		p2 := StudentTPValue(tv+0.5, df)
		return p1 >= 0 && p1 <= 1 && p2 <= p1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
