package arch

import "math"

// Predictor column names used by the regression models. Coupled
// sub-parameters (e.g. FPR, store queue) vary in lockstep with their group
// leader, so one representative value per Table 1 group is sufficient and
// keeps the design matrix full rank. Cache capacities enter as log2(KB):
// the axis is geometric (each level doubles), so the log is the natural
// scale on which splines interpolate.
const (
	PredDepth = "depth" // FO4 per stage
	PredWidth = "width" // decode bandwidth
	PredRegs  = "regs"  // general-purpose physical registers
	PredResv  = "resv"  // fixed-point reservation station entries
	PredIL1   = "il1"   // log2 of I-L1 KB
	PredDL1   = "dl1"   // log2 of D-L1 KB
	PredL2    = "l2"    // log2 of L2 KB
)

// PredictorNames lists the regression predictors in canonical order.
func PredictorNames() []string {
	return []string{PredDepth, PredWidth, PredRegs, PredResv, PredIL1, PredDL1, PredL2}
}

// Predictors returns the regression predictor vector for a configuration,
// ordered as PredictorNames.
func Predictors(c Config) []float64 {
	return []float64{
		float64(c.DepthFO4),
		float64(c.Width),
		float64(c.GPR),
		float64(c.ResvFX),
		math.Log2(float64(c.IL1KB)),
		math.Log2(float64(c.DL1KB)),
		math.Log2(float64(c.L2KB)),
	}
}

// PredictorsInto fills dst (which must have length >= 7) with the
// predictor vector, avoiding allocation in exhaustive-prediction loops,
// and returns dst[:7].
func PredictorsInto(c Config, dst []float64) []float64 {
	dst = dst[:7]
	dst[0] = float64(c.DepthFO4)
	dst[1] = float64(c.Width)
	dst[2] = float64(c.GPR)
	dst[3] = float64(c.ResvFX)
	dst[4] = math.Log2(float64(c.IL1KB))
	dst[5] = math.Log2(float64(c.DL1KB))
	dst[6] = math.Log2(float64(c.L2KB))
	return dst
}

// PredictorIndex returns the position of a predictor name within
// PredictorNames ordering, or -1 if unknown.
func PredictorIndex(name string) int {
	switch name {
	case PredDepth:
		return 0
	case PredWidth:
		return 1
	case PredRegs:
		return 2
	case PredResv:
		return 3
	case PredIL1:
		return 4
	case PredDL1:
		return 5
	case PredL2:
		return 6
	default:
		return -1
	}
}

// PredictorLevelValues returns, for each predictor in PredictorNames
// order, the value the predictor takes at each level of its axis within
// the space. Predictors map one-to-one onto axes in order and each
// depends only on its own axis, so the table is exact: for any point p,
// Predictors(s.Config(p))[a] == PredictorLevelValues(s)[a][p[a]], bit
// for bit. Compiled regression models use these tables to precompute
// every spline-basis value a sweep can ever need.
func PredictorLevelValues(s *Space) [][]float64 {
	levels := s.Levels()
	out := make([][]float64, NumAxes)
	for a := 0; a < NumAxes; a++ {
		out[a] = make([]float64, levels[a])
		for l := 0; l < levels[a]; l++ {
			var p Point
			p[a] = l
			out[a][l] = Predictors(s.Config(p))[a]
		}
	}
	return out
}

// PredictorGetter adapts a configuration to the lookup function consumed
// by regression.Model.Predict. It panics on a name outside
// PredictorNames.
func PredictorGetter(c Config) func(string) float64 {
	var vals [NumAxes]float64
	PredictorsInto(c, vals[:])
	return func(name string) float64 {
		i := PredictorIndex(name)
		if i < 0 {
			panic("arch: unknown predictor " + name)
		}
		return vals[i]
	}
}
