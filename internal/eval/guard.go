package eval

import (
	"sync/atomic"

	"repro/internal/obs"
)

// Guardrail observability instruments, shared by every guarded backend.
var (
	guardChecksCtr      = obs.DefaultRegistry.Counter("eval.guard.checks")
	guardDivergencesCtr = obs.DefaultRegistry.Counter("eval.guard.divergences")
)

// Guardrail is the runtime cross-check that keeps fast paths honest: a
// backend with a fast path (compiled model tables, the simulator's
// outcome memo) samples roughly one in Interval fast results and
// recomputes it on its reference path. The paths are bit-identical by
// construction, so any difference is silent corruption — a bug or a
// flipped bit — and the guardrail records the divergence and degrades:
// Degraded flips permanently to true and the owner routes every later
// evaluation down the safe reference path instead of returning wrong
// numbers.
//
// Sampling is counter-based (every Interval-th fast evaluation), so
// single-threaded runs check a deterministic subsequence. A nil
// *Guardrail is valid and never checks.
type Guardrail struct {
	interval    int64
	n           atomic.Int64
	checks      atomic.Int64
	divergences atomic.Int64
	degraded    atomic.Bool
}

// NewGuardrail returns a guardrail checking every interval-th fast
// evaluation; interval <= 0 yields a guardrail that never checks.
func NewGuardrail(interval int64) *Guardrail {
	return &Guardrail{interval: interval}
}

// Tick counts one fast evaluation and reports whether it should be
// cross-checked.
func (g *Guardrail) Tick() bool {
	if g == nil || g.interval <= 0 {
		return false
	}
	return g.n.Add(1)%g.interval == 0
}

// TickCount counts n fast evaluations at once and returns how many
// check boundaries the batch crossed — the per-point sampling rate for
// batch kernels, which tick once per chunk to keep the hot loop free of
// shared-counter traffic. The caller cross-checks that many points of
// the batch, so the configured one-in-Interval rate holds exactly
// however the batch is sized.
func (g *Guardrail) TickCount(n int64) int64 {
	if g == nil || g.interval <= 0 || n <= 0 {
		return 0
	}
	after := g.n.Add(n)
	return after/g.interval - (after-n)/g.interval
}

// Record reports the outcome of one cross-check. A divergence trips the
// guardrail: Degraded becomes true and stays true for the rest of the
// run.
func (g *Guardrail) Record(diverged bool) {
	if g == nil {
		return
	}
	g.checks.Add(1)
	guardChecksCtr.Add(1)
	if diverged {
		g.divergences.Add(1)
		guardDivergencesCtr.Add(1)
		g.degraded.Store(true)
	}
}

// Degraded reports whether a divergence has been observed; owners route
// evaluations down the reference path while true.
func (g *Guardrail) Degraded() bool { return g != nil && g.degraded.Load() }

// Stats returns the guardrail's lifetime counters.
func (g *Guardrail) Stats() (checks, divergences int64, degraded bool) {
	if g == nil {
		return 0, 0, false
	}
	return g.checks.Load(), g.divergences.Load(), g.degraded.Load()
}
