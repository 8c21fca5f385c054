//go:build !linux

package obs

// peakRSSMB reports 0 off Linux, where the manifest omits peak_rss_mb.
func peakRSSMB() float64 { return 0 }
