// Package metrics defines the power-performance metrics of the paper:
// bips (billions of instructions per second), delay (execution time), and
// bips^3/w, the voltage-invariant efficiency metric the studies optimize
// (the inverse energy-delay-squared product).
package metrics

import "fmt"

// TraceInstructions is the nominal workload length the paper's delay
// numbers refer to: 100 million instructions per benchmark trace.
const TraceInstructions = 100e6

// Delay converts throughput in bips to seconds for the nominal
// 100M-instruction workload. It panics on non-positive bips.
func Delay(bips float64) float64 {
	if bips <= 0 {
		panic(fmt.Sprintf("metrics: non-positive bips %v", bips))
	}
	return TraceInstructions / (bips * 1e9)
}

// BIPS3W returns bips^3 / watts, the paper's efficiency metric. Cubing
// performance reflects the cubic relationship between power and voltage:
// the metric is invariant under voltage/frequency scaling. It panics on
// non-positive inputs.
func BIPS3W(bips, watts float64) float64 {
	if bips <= 0 || watts <= 0 {
		panic(fmt.Sprintf("metrics: non-positive inputs bips=%v watts=%v", bips, watts))
	}
	return bips * bips * bips / watts
}
