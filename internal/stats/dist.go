package stats

import (
	"fmt"
	"math"
)

// This file implements the distribution functions needed for regression
// significance testing (the paper's methodology inherits "significance
// testing" from the authors' ASPLOS'06 derivation): the regularized
// incomplete beta function and, on top of it, Student's t and the F
// distribution.

// BetaInc returns the regularized incomplete beta function I_x(a, b),
// computed with the continued-fraction expansion (Numerical Recipes
// betacf). It panics for a, b <= 0 or x outside [0, 1].
func BetaInc(a, b, x float64) float64 {
	if a <= 0 || b <= 0 {
		panic(fmt.Sprintf("stats: BetaInc with non-positive shape a=%v b=%v", a, b))
	}
	if x < 0 || x > 1 || math.IsNaN(x) {
		panic(fmt.Sprintf("stats: BetaInc with x=%v outside [0,1]", x))
	}
	if x == 0 {
		return 0
	}
	if x == 1 {
		return 1
	}
	// ln of the prefactor x^a (1-x)^b / (a B(a,b)).
	lbeta := lgamma(a) + lgamma(b) - lgamma(a+b)
	front := math.Exp(a*math.Log(x) + b*math.Log(1-x) - lbeta)
	// Use the symmetry relation for faster convergence.
	if x < (a+1)/(a+b+2) {
		return front * betacf(a, b, x) / a
	}
	return 1 - front*betacf(b, a, 1-x)/b
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// betacf evaluates the continued fraction for the incomplete beta
// function by the modified Lentz method.
func betacf(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := float64(2 * m)
		fm := float64(m)
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			return h
		}
	}
	// Convergence failure is a caller bug (extreme shapes); the partial
	// sum is still the best available estimate.
	return h
}

// StudentTPValue returns the two-sided p-value of a t statistic with df
// degrees of freedom: P(|T| >= |t|). It panics for df <= 0.
func StudentTPValue(t, df float64) float64 {
	if df <= 0 {
		panic(fmt.Sprintf("stats: StudentTPValue with df=%v", df))
	}
	if math.IsInf(t, 0) {
		return 0
	}
	x := df / (df + t*t)
	return BetaInc(df/2, 0.5, x)
}

// FPValue returns the upper-tail p-value of an F statistic with (df1,
// df2) degrees of freedom: P(F >= f). It panics for non-positive degrees
// of freedom and returns 1 for f <= 0.
func FPValue(f, df1, df2 float64) float64 {
	if df1 <= 0 || df2 <= 0 {
		panic(fmt.Sprintf("stats: FPValue with df1=%v df2=%v", df1, df2))
	}
	if f <= 0 {
		return 1
	}
	x := df2 / (df2 + df1*f)
	return BetaInc(df2/2, df1/2, x)
}
