// Package cacti provides an analytic cache timing and power model
// in the spirit of CACTI (Shivakumar & Jouppi), which the paper uses to
// scale cache latency and power with array size. The constants are
// calibrated to 130 nm-era publications so that a 32 KB L1 hits in about
// one 1.3 GHz cycle and a 2 MB L2 in roughly nine (the paper's Table 3),
// with access energy growing sublinearly and leakage linearly in capacity.
// Absolute values are less important than the shape: larger caches are
// slower and hungrier, and latency measured in cycles grows with clock
// frequency, creating the depth-cache interactions the regression models
// must capture.
package cacti

import (
	"fmt"
	"math"
)

// AccessTimeNS returns the access latency of a cache array in
// nanoseconds. Latency grows logarithmically with capacity (decoder
// depth) plus a linear term for wire delay across the array, plus a small
// comparator cost per way.
func AccessTimeNS(sizeKB, assoc int) float64 {
	mustPositive(sizeKB, assoc)
	kb := float64(sizeKB)
	return 0.12 + 0.10*math.Log2(kb) + 0.003*kb + 0.02*float64(assoc-1)
}

// EnergyPerAccessNJ returns the dynamic energy of one access in
// nanojoules. Energy grows sublinearly with capacity (only one subarray
// switches) and mildly with associativity (parallel tag compares).
func EnergyPerAccessNJ(sizeKB, assoc int) float64 {
	mustPositive(sizeKB, assoc)
	kb := float64(sizeKB)
	return 0.02 + 0.010*math.Pow(kb, 0.55)*(1+0.05*float64(assoc-1))
}

// LeakageW returns the static power of the array in watts. Leakage is
// proportional to the number of cells.
func LeakageW(sizeKB int) float64 {
	if sizeKB <= 0 {
		panic(fmt.Sprintf("cacti: size %d KB must be positive", sizeKB))
	}
	return 0.001 * float64(sizeKB)
}

// CyclesAt converts an access time in nanoseconds to pipeline cycles at
// the given clock period, with a floor of one cycle.
func CyclesAt(accessNS, periodNS float64) int {
	if periodNS <= 0 {
		panic(fmt.Sprintf("cacti: period %v must be positive", periodNS))
	}
	c := int(math.Ceil(accessNS / periodNS))
	if c < 1 {
		c = 1
	}
	return c
}

func mustPositive(sizeKB, assoc int) {
	if sizeKB <= 0 {
		panic(fmt.Sprintf("cacti: size %d KB must be positive", sizeKB))
	}
	if assoc <= 0 {
		panic(fmt.Sprintf("cacti: associativity %d must be positive", assoc))
	}
}
