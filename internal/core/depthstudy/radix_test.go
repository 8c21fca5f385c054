package depthstudy

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestRadixSortMatchesSlicesSort(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	random := func(n int, gen func() float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = gen()
		}
		return out
	}
	// Keys that differ only in the byte at the given position.
	oneDigit := func(shift uint) []float64 {
		out := make([]float64, 300)
		for i := range out {
			out[i] = math.Float64frombits(0x3ff0_0000_0000_0000 | uint64(r.Intn(256))<<shift)
		}
		return out
	}
	cases := map[string][]float64{
		"empty":      {},
		"n=1":        {3.5},
		"all equal":  random(500, func() float64 { return 0.75 }),
		"lognormal":  random(37500, func() float64 { return math.Exp(3 * r.NormFloat64()) }),
		"unit":       random(1000, r.Float64),
		"duplicates": random(2000, func() float64 { return float64(r.Intn(7)) / 4 }),
		"subnormals": random(500, func() float64 { return math.Float64frombits(uint64(r.Int63n(1 << 52))) }),
		"extremes": {math.MaxFloat64, 0, math.Inf(1), math.SmallestNonzeroFloat64, 1,
			0, math.MaxFloat64, 5e-324, math.Inf(1), 2.2250738585072014e-308},
		"low digit":  oneDigit(0),
		"mid digit":  oneDigit(24),
		"high digit": oneDigit(40),
		"descending": random(1000, func() float64 { return 1 }),
	}
	for i := range cases["descending"] {
		cases["descending"][i] = float64(1000 - i)
	}
	var buf []float64
	for name, keys := range cases {
		want := slices.Clone(keys)
		slices.Sort(want)
		got := slices.Clone(keys)
		buf = radixSort(got, buf)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: key %d = %v, slices.Sort gave %v", name, i, got[i], want[i])
			}
		}
	}
}
