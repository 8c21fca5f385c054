// Package pareto extracts pareto-optimal frontiers in the two-dimensional
// (delay, power) space used by the paper's Section 4. A design is pareto
// optimal if no other design has both lower delay and lower power.
package pareto

import (
	"fmt"
	"sort"
)

// Point is one evaluated design: an opaque ID (typically a design-space
// index) and its two objectives, both minimized.
type Point struct {
	ID    int
	Delay float64
	Power float64
}

// IsDominated reports whether p is strictly dominated by q: q is no worse
// in both objectives and strictly better in at least one.
func IsDominated(p, q Point) bool {
	if q.Delay > p.Delay || q.Power > p.Power {
		return false
	}
	return q.Delay < p.Delay || q.Power < p.Power
}

// DiscretizedFrontierColumns reproduces the paper's construction
// (Section 4.2): "the frontier is constructed by discretizing the range
// of delays and identifying the design that minimizes power for each
// delay in a number of delay targets". The delay axis is split into
// nTargets equal bins spanning [min delay, max delay]; within each bin
// the power-minimizing design is selected. Empty bins contribute
// nothing. The result is sorted by delay. nTargets must be positive.
//
// The designs come as parallel columns (structure-of-arrays), so
// callers holding columnar prediction data build frontiers without
// assembling a point slice. The three columns must have equal length;
// element i describes one design.
func DiscretizedFrontierColumns(ids []int, delays, powers []float64, nTargets int) ([]Point, error) {
	if nTargets <= 0 {
		return nil, fmt.Errorf("pareto: nTargets=%d must be positive", nTargets)
	}
	if len(delays) != len(ids) || len(powers) != len(ids) {
		return nil, fmt.Errorf("pareto: column lengths differ: ids=%d delays=%d powers=%d",
			len(ids), len(delays), len(powers))
	}
	if len(ids) == 0 {
		return nil, nil
	}
	lo, hi := delays[0], delays[0]
	for _, d := range delays {
		if d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	if hi == lo {
		// Degenerate: all designs share one delay; keep the cheapest.
		best := 0
		for i := 1; i < len(ids); i++ {
			if powers[i] < powers[best] || (powers[i] == powers[best] && ids[i] < ids[best]) {
				best = i
			}
		}
		return []Point{{ID: ids[best], Delay: delays[best], Power: powers[best]}}, nil
	}
	width := (hi - lo) / float64(nTargets)
	best := make([]int, nTargets) // index+1 into the columns; 0 = empty bin
	for i := range ids {
		bin := int((delays[i] - lo) / width)
		if bin >= nTargets {
			bin = nTargets - 1
		}
		cur := best[bin] - 1
		if cur < 0 || powers[i] < powers[cur] ||
			(powers[i] == powers[cur] && (delays[i] < delays[cur] || (delays[i] == delays[cur] && ids[i] < ids[cur]))) {
			best[bin] = i + 1
		}
	}
	var binned []Point
	for _, b := range best {
		if b > 0 {
			i := b - 1
			binned = append(binned, Point{ID: ids[i], Delay: delays[i], Power: powers[i]})
		}
	}
	sort.Slice(binned, func(i, j int) bool { return binned[i].Delay < binned[j].Delay })
	// A bin winner can still be dominated by a faster bin's winner;
	// filter so the result is a true frontier (strictly decreasing power
	// along increasing delay).
	out := binned[:0]
	for _, p := range binned {
		if len(out) == 0 || p.Power < out[len(out)-1].Power {
			out = append(out, p)
		}
	}
	return out, nil
}
