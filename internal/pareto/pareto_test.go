package pareto

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func frontierIDs(f []Point) []int {
	ids := make([]int, len(f))
	for i, p := range f {
		ids[i] = p.ID
	}
	return ids
}

func TestIsDominated(t *testing.T) {
	p := Point{Delay: 2, Power: 2}
	cases := []struct {
		q    Point
		want bool
	}{
		{Point{Delay: 1, Power: 1}, true},
		{Point{Delay: 2, Power: 1}, true},
		{Point{Delay: 1, Power: 2}, true},
		{Point{Delay: 2, Power: 2}, false}, // equal, not strict
		{Point{Delay: 3, Power: 1}, false},
		{Point{Delay: 1, Power: 3}, false},
	}
	for _, c := range cases {
		if got := IsDominated(p, c.q); got != c.want {
			t.Fatalf("IsDominated(%v, %v) = %v, want %v", p, c.q, got, c.want)
		}
	}
}

// discretized runs DiscretizedFrontierColumns on a point slice.
func discretized(points []Point, nTargets int) ([]Point, error) {
	ids := make([]int, len(points))
	delays := make([]float64, len(points))
	powers := make([]float64, len(points))
	for i, p := range points {
		ids[i], delays[i], powers[i] = p.ID, p.Delay, p.Power
	}
	return DiscretizedFrontierColumns(ids, delays, powers, nTargets)
}

func TestDiscretizedFrontier(t *testing.T) {
	points := []Point{
		{ID: 0, Delay: 0.0, Power: 10},
		{ID: 1, Delay: 0.4, Power: 6},
		{ID: 2, Delay: 1.0, Power: 8},
		{ID: 3, Delay: 1.4, Power: 3},
		{ID: 4, Delay: 2.0, Power: 1},
	}
	f, err := discretized(points, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Bins: [0,1) -> cheapest is ID 1 (6W); [1,2] -> cheapest is ID 4.
	ids := frontierIDs(f)
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 4 {
		t.Fatalf("discretized frontier = %v, want [1 4]", ids)
	}
}

func TestDiscretizedFrontierDegenerate(t *testing.T) {
	points := []Point{
		{ID: 0, Delay: 1, Power: 5},
		{ID: 1, Delay: 1, Power: 3},
	}
	f, err := discretized(points, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(f) != 1 || f[0].ID != 1 {
		t.Fatalf("degenerate frontier = %v", frontierIDs(f))
	}
}

func TestDiscretizedFrontierErrors(t *testing.T) {
	if _, err := discretized([]Point{{}}, 0); err == nil {
		t.Fatal("nTargets=0 accepted")
	}
	f, err := discretized(nil, 5)
	if err != nil || f != nil {
		t.Fatalf("empty input: f=%v err=%v", f, err)
	}
}

// Property: the discretized frontier is a subset of the input and each
// selected point is the power minimum of its bin.
func TestQuickDiscretizedSubset(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(50)
		points := make([]Point, n)
		for i := range points {
			points[i] = Point{ID: i, Delay: r.Float64() * 10, Power: r.Float64() * 100}
		}
		front, err := discretized(points, 8)
		if err != nil {
			return false
		}
		byID := map[int]Point{}
		for _, p := range points {
			byID[p.ID] = p
		}
		for _, fp := range front {
			orig, ok := byID[fp.ID]
			if !ok || orig != fp {
				return false
			}
		}
		return len(front) <= 8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// bruteFrontier is the oracle for DiscretizedFrontierColumns: for each
// delay bin in turn it scans every design for the bin's power minimum
// (ties to the lower delay, then the lower ID), then keeps the bin
// winners that no faster winner matches or beats on power.
func bruteFrontier(ids []int, delays, powers []float64, nTargets int) []Point {
	lo, hi := delays[0], delays[0]
	for _, d := range delays {
		lo, hi = min(lo, d), max(hi, d)
	}
	bin := func(d float64) int {
		if hi == lo {
			return 0
		}
		return min(int((d-lo)/((hi-lo)/float64(nTargets))), nTargets-1)
	}
	var winners []Point
	for b := 0; b < nTargets; b++ {
		w := -1
		for i := range ids {
			if bin(delays[i]) != b {
				continue
			}
			if w < 0 || powers[i] < powers[w] || powers[i] == powers[w] &&
				(delays[i] < delays[w] || delays[i] == delays[w] && ids[i] < ids[w]) {
				w = i
			}
		}
		if w >= 0 {
			winners = append(winners, Point{ID: ids[w], Delay: delays[w], Power: powers[w]})
		}
	}
	var out []Point
	for _, p := range winners {
		if len(out) == 0 || p.Power < out[len(out)-1].Power {
			out = append(out, p)
		}
	}
	return out
}

// TestDiscretizedFrontierColumnsEquivalence checks the one-pass columnar
// construction against the brute-force per-bin minimum on random inputs
// with many ties, including all-equal delays.
func TestDiscretizedFrontierColumnsEquivalence(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(80)
		levels := 1 + r.Intn(16) // one level: every delay equal
		ids := make([]int, n)
		delays := make([]float64, n)
		powers := make([]float64, n)
		for i := range ids {
			ids[i] = r.Intn(1000)
			delays[i] = float64(r.Intn(levels)) / 3 // ties likely
			powers[i] = float64(r.Intn(16)) / 3
		}
		nTargets := 1 + r.Intn(12)
		got, err := DiscretizedFrontierColumns(ids, delays, powers, nTargets)
		want := bruteFrontier(ids, delays, powers, nTargets)
		if err != nil || len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDiscretizedFrontierColumnsErrors(t *testing.T) {
	if _, err := DiscretizedFrontierColumns([]int{1}, []float64{1}, []float64{1}, 0); err == nil {
		t.Fatal("nTargets=0 accepted")
	}
	if _, err := DiscretizedFrontierColumns([]int{1, 2}, []float64{1}, []float64{1, 2}, 4); err == nil {
		t.Fatal("mismatched column lengths accepted")
	}
	f, err := DiscretizedFrontierColumns(nil, nil, nil, 5)
	if err != nil || f != nil {
		t.Fatalf("empty columns: f=%v err=%v", f, err)
	}
}

func TestDiscretizedFrontierColumnsDegenerate(t *testing.T) {
	// All delays equal: the single cheapest design survives, lowest ID on
	// power ties.
	f, err := DiscretizedFrontierColumns(
		[]int{7, 3, 9},
		[]float64{2, 2, 2},
		[]float64{5, 4, 4},
		10)
	if err != nil {
		t.Fatal(err)
	}
	if len(f) != 1 || f[0].ID != 3 || f[0].Power != 4 {
		t.Fatalf("degenerate frontier = %+v, want single point ID 3 power 4", f)
	}
}
