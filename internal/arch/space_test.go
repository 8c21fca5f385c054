package arch

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTableOneSpaceSize(t *testing.T) {
	s := TableOneSpace()
	if got := s.Size(); got != 375000 {
		t.Fatalf("Table 1 space size = %d, want 375000", got)
	}
	levels := s.Levels()
	want := [NumAxes]int{10, 3, 10, 10, 5, 5, 5}
	if levels != want {
		t.Fatalf("levels = %v, want %v", levels, want)
	}
}

func TestExplorationSpaceSize(t *testing.T) {
	s := ExplorationSpace()
	if got := s.Size(); got != 262500 {
		t.Fatalf("exploration space size = %d, want 262500", got)
	}
	depths := s.DepthLevels()
	if depths[0] != 12 || depths[len(depths)-1] != 30 || len(depths) != 7 {
		t.Fatalf("exploration depths = %v", depths)
	}
}

func TestDepthLevelsTableOne(t *testing.T) {
	depths := TableOneSpace().DepthLevels()
	want := []int{9, 12, 15, 18, 21, 24, 27, 30, 33, 36}
	if len(depths) != len(want) {
		t.Fatalf("depths = %v", depths)
	}
	for i := range want {
		if depths[i] != want[i] {
			t.Fatalf("depths = %v, want %v", depths, want)
		}
	}
}

func TestConfigResolution(t *testing.T) {
	s := TableOneSpace()
	// Max point: deepest FO4 level (36, i.e. shallowest pipeline), widest,
	// biggest everything.
	p := Point{9, 2, 9, 9, 4, 4, 4}
	c := s.Config(p)
	if c.DepthFO4 != 36 {
		t.Errorf("DepthFO4 = %d, want 36", c.DepthFO4)
	}
	if c.Width != 8 || c.LSQ != 45 || c.SQ != 42 || c.FUPerKind != 4 {
		t.Errorf("width group = %+v", c)
	}
	if c.GPR != 130 || c.FPR != 112 || c.SPR != 96 {
		t.Errorf("registers = %d/%d/%d, want 130/112/96", c.GPR, c.FPR, c.SPR)
	}
	if c.ResvFX != 28 || c.ResvBR != 15 || c.ResvFP != 14 {
		t.Errorf("reservation stations = %d/%d/%d, want 28/15/14", c.ResvBR, c.ResvFX, c.ResvFP)
	}
	if c.IL1KB != 256 || c.DL1KB != 128 || c.L2KB != 4096 {
		t.Errorf("caches = %d/%d/%d", c.IL1KB, c.DL1KB, c.L2KB)
	}
}

func TestConfigMinPoint(t *testing.T) {
	c := TableOneSpace().Config(Point{})
	if c.DepthFO4 != 9 || c.Width != 2 || c.GPR != 40 || c.FPR != 40 ||
		c.SPR != 42 || c.ResvBR != 6 || c.ResvFX != 10 || c.ResvFP != 5 ||
		c.IL1KB != 16 || c.DL1KB != 8 || c.L2KB != 256 {
		t.Fatalf("min config = %+v", c)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("min config invalid: %v", err)
	}
}

func TestFlatIndexRoundTrip(t *testing.T) {
	s := ExplorationSpace()
	for _, i := range []int{0, 1, 1234, 99999, s.Size() - 1} {
		p := s.PointAt(i)
		if got := s.FlatIndex(p); got != i {
			t.Fatalf("round trip %d -> %v -> %d", i, p, got)
		}
	}
}

func TestFlatIndexPanics(t *testing.T) {
	s := ExplorationSpace()
	for _, f := range []func(){
		func() { s.FlatIndex(Point{99, 0, 0, 0, 0, 0, 0}) },
		func() { s.PointAt(-1) },
		func() { s.PointAt(s.Size()) },
		func() { s.Config(Point{0, 0, 0, 0, 0, 0, 99}) },
		func() { s.PointsAtDepth(7) },
		func() { s.SampleUAR(-1, 0) },
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

func TestSampleUARDeterministicAndInRange(t *testing.T) {
	s := TableOneSpace()
	a := s.SampleUAR(500, 42)
	b := s.SampleUAR(500, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("sampling not deterministic")
		}
		if !s.Contains(a[i]) {
			t.Fatalf("sample %v out of space", a[i])
		}
	}
	c := s.SampleUAR(500, 43)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("different seeds produced %d/500 identical samples", same)
	}
}

func TestSampleUARCoversAxes(t *testing.T) {
	// With 1000 samples every level of every axis should be hit.
	s := TableOneSpace()
	samples := s.SampleUAR(1000, 7)
	levels := s.Levels()
	for a := 0; a < NumAxes; a++ {
		seen := make([]bool, levels[a])
		for _, p := range samples {
			seen[p[a]] = true
		}
		for l, ok := range seen {
			if !ok {
				t.Fatalf("axis %d level %d never sampled in 1000 draws", a, l)
			}
		}
	}
}

func TestPointsAtDepth(t *testing.T) {
	s := ExplorationSpace()
	pts := s.PointsAtDepth(2)
	if len(pts) != 37500 {
		t.Fatalf("PointsAtDepth count = %d, want 37500", len(pts))
	}
	seen := make(map[int]bool, len(pts))
	for _, p := range pts {
		if p[AxisDepth] != 2 {
			t.Fatalf("point %v has wrong depth level", p)
		}
		idx := s.FlatIndex(p)
		if seen[idx] {
			t.Fatalf("duplicate point %v", p)
		}
		seen[idx] = true
	}
}

func TestBaseline(t *testing.T) {
	b := Baseline()
	if err := b.Validate(); err != nil {
		t.Fatalf("baseline invalid: %v", err)
	}
	if b.DepthFO4 != 19 || b.Width != 4 || b.GPR != 80 || b.FPR != 72 {
		t.Fatalf("baseline = %+v", b)
	}
	if b.IL1KB != 64 || b.DL1KB != 32 || b.L2KB != 2048 {
		t.Fatalf("baseline caches = %+v", b)
	}
}

func TestBaselinePoint(t *testing.T) {
	s := ExplorationSpace()
	p := BaselinePoint(s)
	if !s.Contains(p) {
		t.Fatalf("baseline point %v not in space", p)
	}
	c := s.Config(p)
	// Depth 19 snaps to 18 FO4 in the exploration grid.
	if c.DepthFO4 != 18 {
		t.Fatalf("baseline point depth = %d, want 18", c.DepthFO4)
	}
	if c.Width != 4 || c.GPR != 80 || c.IL1KB != 64 || c.DL1KB != 32 || c.L2KB != 2048 {
		t.Fatalf("baseline point config = %+v", c)
	}
	if c.ResvBR != 12 {
		t.Fatalf("baseline point ResvBR = %d, want 12", c.ResvBR)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	good := Baseline()
	bad := good
	bad.Width = 0
	if bad.Validate() == nil {
		t.Fatal("zero width accepted")
	}
	bad = good
	bad.DepthFO4 = 100
	if bad.Validate() == nil {
		t.Fatal("absurd depth accepted")
	}
	bad = good
	bad.L2KB = -1
	if bad.Validate() == nil {
		t.Fatal("negative L2 accepted")
	}
}

func TestPredictors(t *testing.T) {
	c := Baseline()
	v := Predictors(c)
	names := PredictorNames()
	if len(v) != len(names) {
		t.Fatalf("predictor count mismatch: %d vs %d", len(v), len(names))
	}
	if v[0] != 19 || v[1] != 4 || v[2] != 80 || v[3] != 22 {
		t.Fatalf("predictors = %v", v)
	}
	if v[4] != 6 { // log2(64)
		t.Fatalf("il1 predictor = %v, want 6", v[4])
	}
	if v[5] != 5 || v[6] != 11 { // log2(32), log2(2048)
		t.Fatalf("cache predictors = %v", v)
	}
}

func TestConfigStringMentionsKeyFields(t *testing.T) {
	s := Baseline().String()
	for _, want := range []string{"19FO4", "width=4", "2MB"} {
		if !contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// Property: flat index round trip holds for any in-range point.
func TestQuickFlatIndexRoundTrip(t *testing.T) {
	s := TableOneSpace()
	levels := s.Levels()
	f := func(raw [NumAxes]uint8) bool {
		var p Point
		for a := range p {
			p[a] = int(raw[a]) % levels[a]
		}
		return s.PointAt(s.FlatIndex(p)) == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: every resolved config from a valid point passes Validate and
// has coupled parameters consistent with their group level.
func TestQuickConfigCoupling(t *testing.T) {
	s := TableOneSpace()
	levels := s.Levels()
	f := func(raw [NumAxes]uint8) bool {
		var p Point
		for a := range p {
			p[a] = int(raw[a]) % levels[a]
		}
		c := s.Config(p)
		if c.Validate() != nil {
			return false
		}
		// Coupling invariants from Table 1.
		if c.FPR != 40+8*p[AxisRegs] || c.SPR != 42+6*p[AxisRegs] {
			return false
		}
		if c.ResvBR != 6+p[AxisResv] || c.ResvFP != 5+p[AxisResv] {
			return false
		}
		switch c.Width {
		case 2:
			return c.LSQ == 15 && c.SQ == 14 && c.FUPerKind == 1
		case 4:
			return c.LSQ == 30 && c.SQ == 28 && c.FUPerKind == 2
		case 8:
			return c.LSQ == 45 && c.SQ == 42 && c.FUPerKind == 4
		}
		return false
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: predictors are finite for all configs in the space.
func TestQuickPredictorsFinite(t *testing.T) {
	s := TableOneSpace()
	levels := s.Levels()
	f := func(raw [NumAxes]uint8) bool {
		var p Point
		for a := range p {
			p[a] = int(raw[a]) % levels[a]
		}
		for _, v := range Predictors(s.Config(p)) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkConfigResolution(b *testing.B) {
	s := ExplorationSpace()
	n := s.Size()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Config(s.PointAt(i % n))
	}
}

func TestPredictorsIntoMatchesPredictors(t *testing.T) {
	cfg := Baseline()
	buf := make([]float64, 7)
	got := PredictorsInto(cfg, buf)
	want := Predictors(cfg)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PredictorsInto[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if &got[0] != &buf[0] {
		t.Fatal("PredictorsInto allocated instead of reusing the buffer")
	}
}

func TestPredictorIndexConsistentWithNames(t *testing.T) {
	for i, name := range PredictorNames() {
		if got := PredictorIndex(name); got != i {
			t.Fatalf("PredictorIndex(%q) = %d, want %d", name, got, i)
		}
	}
	if PredictorIndex("bogus") != -1 {
		t.Fatal("unknown predictor should index to -1")
	}
}

func TestDL1Levels(t *testing.T) {
	levels := ExplorationSpace().DL1Levels()
	want := []int{8, 16, 32, 64, 128}
	if len(levels) != len(want) {
		t.Fatalf("DL1Levels = %v", levels)
	}
	for i := range want {
		if levels[i] != want[i] {
			t.Fatalf("DL1Levels = %v, want %v", levels, want)
		}
	}
	// The returned slice must be a copy.
	levels[0] = 999
	if ExplorationSpace().DL1Levels()[0] == 999 {
		t.Fatal("DL1Levels leaked internal state")
	}
}

func TestPredictorLevelValuesExact(t *testing.T) {
	for _, space := range []*Space{TableOneSpace(), ExplorationSpace()} {
		table := PredictorLevelValues(space)
		if len(table) != NumAxes {
			t.Fatalf("level table has %d axes, want %d", len(table), NumAxes)
		}
		levels := space.Levels()
		for a := 0; a < NumAxes; a++ {
			if len(table[a]) != levels[a] {
				t.Fatalf("axis %d: %d level values, want %d", a, len(table[a]), levels[a])
			}
		}
		// The table must reproduce Predictors bit-for-bit for every point
		// of the space, whatever the other axes are set to.
		for trial := 0; trial < 500; trial++ {
			p := space.SampleUAR(1, uint64(trial))[0]
			vals := Predictors(space.Config(p))
			for a := 0; a < NumAxes; a++ {
				if table[a][p[a]] != vals[a] {
					t.Fatalf("point %v axis %d: table %v, Predictors %v", p, a, table[a][p[a]], vals[a])
				}
			}
		}
	}
}

func TestDepthBlockMatchesPointsAtDepth(t *testing.T) {
	space := ExplorationSpace()
	levels := space.Levels()
	covered := 0
	for d := 0; d < levels[AxisDepth]; d++ {
		lo, hi := space.DepthBlock(d)
		if hi-lo != space.Size()/levels[AxisDepth] {
			t.Fatalf("depth %d block [%d,%d) has wrong size", d, lo, hi)
		}
		covered += hi - lo
		// Every enumerated point at this depth must land inside the
		// block, and the block must contain nothing else.
		want := make(map[int]bool)
		for _, p := range space.PointsAtDepth(d) {
			idx := space.FlatIndex(p)
			if idx < lo || idx >= hi {
				t.Fatalf("depth %d: point %v flat index %d outside [%d,%d)", d, p, idx, lo, hi)
			}
			want[idx] = true
		}
		if len(want) != hi-lo {
			t.Fatalf("depth %d: %d distinct points for block of %d", d, len(want), hi-lo)
		}
		for i := lo; i < hi; i++ {
			if p := space.PointAt(i); p[AxisDepth] != d {
				t.Fatalf("index %d in depth-%d block decodes to depth %d", i, d, p[AxisDepth])
			}
		}
	}
	if covered != space.Size() {
		t.Fatalf("depth blocks cover %d of %d indices", covered, space.Size())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("DepthBlock accepted an out-of-range level")
		}
	}()
	space.DepthBlock(levels[AxisDepth])
}
