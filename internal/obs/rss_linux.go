package obs

import "syscall"

// peakRSSMB returns the process's peak resident set size in MB, or 0
// when getrusage fails.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KB on Linux
}
