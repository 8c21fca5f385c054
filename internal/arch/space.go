// Package arch defines the microarchitectural design space of the paper's
// Table 1 and the POWER4-like baseline of Table 3: seven simultaneously
// varied parameter groups whose Cartesian product spans 375,000 designs,
// plus the smaller 262,500-point exploration subspace (pipeline depths of
// 12 to 30 FO4) used by the design-space studies.
package arch

import (
	"fmt"

	"repro/internal/rng"
)

// NumAxes is the number of independently varied parameter groups
// (S1..S7 in Table 1).
const NumAxes = 7

// Axis indices into a Point.
const (
	AxisDepth = iota // S1: pipeline depth (FO4 per stage)
	AxisWidth        // S2: decode width + coupled queues and FUs
	AxisRegs         // S3: physical registers (GPR/FPR/SPR coupled)
	AxisResv         // S4: reservation stations (BR/FX/FP coupled)
	AxisIL1          // S5: L1 instruction cache size
	AxisDL1          // S6: L1 data cache size
	AxisL2           // S7: L2 cache size
)

// Point identifies one design as a level index per axis.
type Point [NumAxes]int

// Config is a fully-resolved microarchitecture: the values the simulator
// consumes. All cache sizes are in KB.
type Config struct {
	// S1: pipeline depth in fan-out-of-four inverter delays per stage.
	// Smaller FO4 means a deeper pipeline at a higher clock frequency.
	DepthFO4 int

	// S2: pipeline width and its coupled resources.
	Width     int // decode bandwidth, instructions per cycle
	LSQ       int // load queue entries
	SQ        int // store queue entries
	FUPerKind int // functional units of each kind (FXU, FPU, LSU, BR)

	// S3: physical register file sizes.
	GPR, FPR, SPR int

	// S4: reservation station (issue queue) entries per class.
	ResvBR, ResvFX, ResvFP int

	// S5-S7: cache capacities in KB.
	IL1KB, DL1KB, L2KB int

	// Extension parameters beyond the paper's Table 1 space, from the
	// paper's stated future work ("we intend to expand our models to
	// support other parameters such as cache-associativity and in-order
	// execution"). Zero values select the paper's baseline behaviour.

	// InOrder restricts the core to in-order issue: instructions issue
	// in program order with stall-on-use semantics.
	InOrder bool
	// DL1Assoc overrides the data-cache associativity (0 means the
	// Table 3 default of 2 ways).
	DL1Assoc int
}

// Validate performs basic sanity checks on a configuration.
func (c Config) Validate() error {
	checks := []struct {
		name string
		v    int
	}{
		{"DepthFO4", c.DepthFO4}, {"Width", c.Width}, {"LSQ", c.LSQ},
		{"SQ", c.SQ}, {"FUPerKind", c.FUPerKind}, {"GPR", c.GPR},
		{"FPR", c.FPR}, {"SPR", c.SPR}, {"ResvBR", c.ResvBR},
		{"ResvFX", c.ResvFX}, {"ResvFP", c.ResvFP}, {"IL1KB", c.IL1KB},
		{"DL1KB", c.DL1KB}, {"L2KB", c.L2KB},
	}
	for _, ch := range checks {
		if ch.v <= 0 {
			return fmt.Errorf("arch: %s = %d must be positive", ch.name, ch.v)
		}
	}
	if c.DepthFO4 < 6 || c.DepthFO4 > 48 {
		return fmt.Errorf("arch: DepthFO4 = %d outside plausible range [6, 48]", c.DepthFO4)
	}
	if c.DL1Assoc < 0 || c.DL1Assoc > 16 {
		return fmt.Errorf("arch: DL1Assoc = %d outside [0, 16]", c.DL1Assoc)
	}
	if c.DL1Assoc != 0 && c.DL1Assoc&(c.DL1Assoc-1) != 0 {
		return fmt.Errorf("arch: DL1Assoc = %d must be a power of two", c.DL1Assoc)
	}
	return nil
}

// String renders the configuration compactly, in the spirit of the
// paper's Table 2 rows.
func (c Config) String() string {
	return fmt.Sprintf("depth=%dFO4 width=%d regs=%d/%d/%d resv=%d/%d/%d i$=%dKB d$=%dKB l2=%gMB",
		c.DepthFO4, c.Width, c.GPR, c.FPR, c.SPR,
		c.ResvBR, c.ResvFX, c.ResvFP, c.IL1KB, c.DL1KB, float64(c.L2KB)/1024)
}

// widthLevel is one row of the coupled S2 group.
type widthLevel struct {
	width, lsq, sq, fu int
}

// Space is a concrete design space: a list of levels per axis. Use
// TableOneSpace for the 375,000-point sampling space or ExplorationSpace
// for the 262,500-point study space.
type Space struct {
	depths []int        // S1
	widths []widthLevel // S2
	regs   []int        // S3 level index -> GPR (FPR/SPR derived)
	resv   []int        // S4 level index -> ResvFX (BR/FP derived)
	il1    []int        // S5 KB
	dl1    []int        // S6 KB
	l2     []int        // S7 KB
}

// Table 1 rows, shared by both spaces.
var (
	widthLevels = []widthLevel{
		{width: 2, lsq: 15, sq: 14, fu: 1},
		{width: 4, lsq: 30, sq: 28, fu: 2},
		{width: 8, lsq: 45, sq: 42, fu: 4},
	}
	il1Sizes = []int{16, 32, 64, 128, 256}       // KB, 16::2x::256
	dl1Sizes = []int{8, 16, 32, 64, 128}         // KB, 8::2x::128
	l2Sizes  = []int{256, 512, 1024, 2048, 4096} // KB, 0.25::2x::4 MB
)

func regLevels() []int {
	out := make([]int, 10) // GPR 40::10::130
	for i := range out {
		out[i] = 40 + 10*i
	}
	return out
}

func resvLevels() []int {
	out := make([]int, 10) // fixed-point RS 10::2::28
	for i := range out {
		out[i] = 10 + 2*i
	}
	return out
}

// TableOneSpace returns the paper's sampling space: depths 9 to 36 FO4 in
// steps of 3 (ten levels), for a total of 375,000 designs. Models are
// trained on samples from this space so the smaller exploration space is
// free of extrapolation at the depth extremes (paper Section 3.5).
func TableOneSpace() *Space {
	depths := make([]int, 10)
	for i := range depths {
		depths[i] = 9 + 3*i
	}
	return newSpace(depths)
}

// ExplorationSpace returns the 262,500-point study space with depths 12 to
// 30 FO4 (seven levels); all other axes match Table 1.
func ExplorationSpace() *Space {
	depths := make([]int, 7)
	for i := range depths {
		depths[i] = 12 + 3*i
	}
	return newSpace(depths)
}

func newSpace(depths []int) *Space {
	return &Space{
		depths: depths,
		widths: widthLevels,
		regs:   regLevels(),
		resv:   resvLevels(),
		il1:    il1Sizes,
		dl1:    dl1Sizes,
		l2:     l2Sizes,
	}
}

// Levels returns the number of levels on each axis.
func (s *Space) Levels() [NumAxes]int {
	return [NumAxes]int{
		len(s.depths), len(s.widths), len(s.regs), len(s.resv),
		len(s.il1), len(s.dl1), len(s.l2),
	}
}

// Size returns the total number of designs in the space.
func (s *Space) Size() int {
	n := 1
	for _, l := range s.Levels() {
		n *= l
	}
	return n
}

// Contains reports whether the point's level indices are in range.
func (s *Space) Contains(p Point) bool {
	levels := s.Levels()
	for a, idx := range p {
		if idx < 0 || idx >= levels[a] {
			return false
		}
	}
	return true
}

// Config resolves a point to a full configuration. It panics if the point
// is out of range.
func (s *Space) Config(p Point) Config {
	if !s.Contains(p) {
		panic(fmt.Sprintf("arch: point %v outside space with levels %v", p, s.Levels()))
	}
	w := s.widths[p[AxisWidth]]
	regIdx := p[AxisRegs]
	resvIdx := p[AxisResv]
	return Config{
		DepthFO4:  s.depths[p[AxisDepth]],
		Width:     w.width,
		LSQ:       w.lsq,
		SQ:        w.sq,
		FUPerKind: w.fu,
		GPR:       s.regs[regIdx],
		FPR:       40 + 8*regIdx, // 40::8::112, coupled to the GPR level
		SPR:       42 + 6*regIdx, // 42::6::96
		ResvFX:    s.resv[resvIdx],
		ResvBR:    6 + resvIdx, // 6::1::15
		ResvFP:    5 + resvIdx, // 5::1::14
		IL1KB:     s.il1[p[AxisIL1]],
		DL1KB:     s.dl1[p[AxisDL1]],
		L2KB:      s.l2[p[AxisL2]],
	}
}

// FlatIndex maps a point to a dense index in [0, Size()) using mixed-radix
// encoding with AxisDepth as the most significant digit.
func (s *Space) FlatIndex(p Point) int {
	if !s.Contains(p) {
		panic(fmt.Sprintf("arch: point %v outside space", p))
	}
	levels := s.Levels()
	idx := 0
	for a := 0; a < NumAxes; a++ {
		idx = idx*levels[a] + p[a]
	}
	return idx
}

// PointAt inverts FlatIndex. It panics if i is out of range.
func (s *Space) PointAt(i int) Point {
	if i < 0 || i >= s.Size() {
		panic(fmt.Sprintf("arch: flat index %d outside space of size %d", i, s.Size()))
	}
	levels := s.Levels()
	var p Point
	for a := NumAxes - 1; a >= 0; a-- {
		p[a] = i % levels[a]
		i /= levels[a]
	}
	return p
}

// SampleUAR draws n points uniformly at random from the space, the
// paper's sampling strategy (Section 2.3). Sampling is with replacement;
// for n much smaller than the space size duplicates are rare, and the
// paper's methodology does not deduplicate either. The draw is
// deterministic in the seed.
func (s *Space) SampleUAR(n int, seed uint64) []Point {
	if n < 0 {
		panic("arch: SampleUAR with negative n")
	}
	r := rng.New(seed)
	levels := s.Levels()
	out := make([]Point, n)
	for i := range out {
		var p Point
		for a := 0; a < NumAxes; a++ {
			p[a] = r.Intn(levels[a])
		}
		out[i] = p
	}
	return out
}

// DepthLevels returns the FO4 values of the depth axis.
func (s *Space) DepthLevels() []int {
	return append([]int(nil), s.depths...)
}

// DL1Levels returns the data-cache sizes (KB) of the D-L1 axis.
func (s *Space) DL1Levels() []int {
	return append([]int(nil), s.dl1...)
}

// DepthBlock returns the contiguous flat-index range [lo, hi) covering
// every point at the given depth level: AxisDepth is the most
// significant digit of FlatIndex, so each depth owns one block of
// Size()/len(depths) consecutive indices. Consumers that group an
// exhaustive sweep by depth can slice the prediction array instead of
// enumerating and re-encoding 37,500 points.
func (s *Space) DepthBlock(depthLevel int) (lo, hi int) {
	levels := s.Levels()
	if depthLevel < 0 || depthLevel >= levels[AxisDepth] {
		panic(fmt.Sprintf("arch: depth level %d out of range", depthLevel))
	}
	block := s.Size() / levels[AxisDepth]
	return depthLevel * block, (depthLevel + 1) * block
}

// Baseline returns the POWER4-like reference architecture of the paper's
// Table 3, expressed in this repository's configuration terms: a 19 FO4,
// 4-wide core with 80 GPR / 72 FPR, moderate reservation stations, 64 KB
// I-cache, 32 KB D-cache and a 2 MB L2.
func Baseline() Config {
	return Config{
		DepthFO4:  19,
		Width:     4,
		LSQ:       30,
		SQ:        28,
		FUPerKind: 2,
		GPR:       80, FPR: 72, SPR: 66,
		ResvBR: 12, ResvFX: 22, ResvFP: 11,
		IL1KB: 64, DL1KB: 32, L2KB: 2048,
	}
}
