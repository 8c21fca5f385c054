// Package chaos composes the repository's deterministic
// fault-injection primitives into randomized — but seeded and therefore
// reproducible — soak drills. A Menu bounds what kinds of damage may be
// done at which sites; RandomPlan draws one concrete fault.Plan from a
// seed, arming every menu entry; Soak runs a workload round after round
// under freshly drawn plans and checks the robustness invariants that
// the rest of the repository promises one at a time: every round
// completes within its wall budget, and no goroutines leak. Nothing in
// the pipeline retries a failed evaluation, so a fault that fails a
// dataset build ends its attempt, and the drill recovers by resuming
// from the checkpoints the attempt left (RunToCompletion). What the
// workload itself must guarantee (typically byte-identical artifacts
// versus a fault-free run) is asserted by the round callback with
// ByteIdentical.
//
// The package deliberately knows nothing about explorers or servers:
// it manipulates only fault plans and clocks, so any workload can be
// put under soak.
package chaos

import (
	"fmt"
	"time"

	"repro/internal/fault"
)

// RuleSpec bounds one randomized fault rule: the site and kind are
// fixed, the firing schedule is drawn per plan. Exactly one of MaxProb
// (probabilistic firing) and Every (modular schedule) should be set,
// mirroring fault.Rule.
type RuleSpec struct {
	Site string
	Kind fault.Kind

	// MaxProb caps the drawn per-visit firing probability. The draw is
	// kept in [MaxProb/4, MaxProb] so every armed rule stays live — a
	// probability rounding to zero would silently drop the rule from
	// the drill.
	MaxProb float64

	// Every fires on every Every-th visit (used when MaxProb is zero);
	// passed through to the rule unchanged.
	Every int64

	// MaxAfter caps the drawn warm-up: the rule ignores the first
	// [0, MaxAfter] visits, so faults land at a different depth of the
	// run each round.
	MaxAfter int64

	// Count caps total firings, passed through unchanged. A rule that
	// ends the attempt it fires in (on a checkpointed build, every
	// error, panic and hang) should set it, or a round may never
	// converge.
	Count int64

	// MaxDelay caps the drawn sleep for KindDelay rules; the draw is
	// kept in [MaxDelay/4, MaxDelay].
	MaxDelay time.Duration
}

// Menu is the damage a drill is allowed to do: one spec per rule, all
// of them armed in every drawn plan.
type Menu []RuleSpec

// DefaultDatasetMenu is the standard drill for a checkpointed dataset
// build. It composes, in one plan, every fault class the pipeline
// claims to survive: an evaluator error, an evaluator panic (recovered
// into a typed error), evaluator delays, a hung evaluation (recoverable
// only by cancelling the attempt), a checkpoint write failure, and a
// second evaluator error deeper into the run. Each error, panic and
// hang fails the attempt it lands in, and each fires at most once, so
// at most five attempts fail and a run restarted with resume always
// converges within six.
func DefaultDatasetMenu() Menu {
	return Menu{
		{Site: "eval.invoke", Kind: fault.KindError, Every: 1, MaxAfter: 30, Count: 1},
		{Site: "eval.invoke", Kind: fault.KindPanic, Every: 1, MaxAfter: 30, Count: 1},
		{Site: "eval.invoke", Kind: fault.KindDelay, MaxProb: 0.01, MaxDelay: 2 * time.Millisecond},
		{Site: "eval.invoke", Kind: fault.KindHang, Every: 1, MaxAfter: 20, Count: 1},
		{Site: "ckpt.save", Kind: fault.KindError, Every: 1, MaxAfter: 3, Count: 1},
		{Site: "eval.invoke", Kind: fault.KindError, Every: 1, MaxAfter: 30, Count: 1},
	}
}

// DefaultServeMenu is the standard drill for a live dsed under client
// load: request-path errors, injected latency, and count-bounded
// request hangs (survivable because the handler's fault site is bounded
// by the server's request deadline — a hung handler times out instead
// of pinning its goroutine forever), plus the evaluator faults behind
// the endpoints. Those stay probabilistic: an evaluator error or panic
// fails only the request it lands in, as an orderly 500, and the
// server keeps serving.
func DefaultServeMenu() Menu {
	return Menu{
		{Site: "serve.request", Kind: fault.KindError, MaxProb: 0.05},
		{Site: "serve.request", Kind: fault.KindDelay, MaxProb: 0.05, MaxDelay: 20 * time.Millisecond},
		{Site: "serve.request", Kind: fault.KindHang, Every: 1, MaxAfter: 10, Count: 2},
		{Site: "eval.invoke", Kind: fault.KindError, MaxProb: 0.02},
		{Site: "eval.invoke", Kind: fault.KindPanic, MaxProb: 0.005},
		{Site: "eval.invoke", Kind: fault.KindDelay, MaxProb: 0.01, MaxDelay: 2 * time.Millisecond},
	}
}

// splitmix64 is the finalizer behind the package's deterministic draws
// (the same mixer the fault and eval packages use, so one seed namespace
// behaves consistently across the repository).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// drawStream is a tiny deterministic sequence over splitmix64: enough
// randomness to vary a drill, no global state, identical on every
// platform.
type drawStream struct{ state uint64 }

func (d *drawStream) next() uint64 {
	d.state++
	return splitmix64(d.state)
}

// unit returns a draw in [0, 1).
func (d *drawStream) unit() float64 {
	return float64(d.next()>>11) / float64(1<<53)
}

// RandomPlan draws one concrete fault plan from the seed: every menu
// entry becomes a rule, with its free parameters (probability, warm-up,
// delay) drawn from a splitmix64 stream over the seed. The same seed
// and menu always produce the identical plan — a failing soak round is
// re-runnable from its reported seed alone. The plan's own Seed (which
// drives per-visit probabilistic draws inside the fault package) is
// derived from the same stream.
func RandomPlan(seed uint64, menu Menu) *fault.Plan {
	d := &drawStream{state: seed}
	p := &fault.Plan{Seed: d.next()}
	for _, spec := range menu {
		r := fault.Rule{
			Site:  spec.Site,
			Kind:  spec.Kind,
			Every: spec.Every,
			Count: spec.Count,
		}
		if spec.MaxProb > 0 {
			r.Prob = spec.MaxProb * (0.25 + 0.75*d.unit())
			r.Every = 0
		}
		if spec.MaxAfter > 0 {
			r.After = int64(d.next() % uint64(spec.MaxAfter+1))
		}
		if spec.MaxDelay > 0 {
			r.Delay = time.Duration(float64(spec.MaxDelay) * (0.25 + 0.75*d.unit()))
		}
		p.Rules = append(p.Rules, r)
	}
	return p
}

// PlanString renders a drawn plan compactly for logs and failure
// messages, one rule per semicolon-separated clause in the same spirit
// as fault.Parse input.
func PlanString(p *fault.Plan) string {
	s := fmt.Sprintf("seed=%d", p.Seed)
	for _, r := range p.Rules {
		s += fmt.Sprintf(";%s:%s", r.Site, r.Kind)
		if r.Prob > 0 {
			s += fmt.Sprintf(":p=%.4f", r.Prob)
		}
		if r.Every > 0 {
			s += fmt.Sprintf(":every=%d", r.Every)
		}
		if r.After > 0 {
			s += fmt.Sprintf(",after=%d", r.After)
		}
		if r.Count > 0 {
			s += fmt.Sprintf(",count=%d", r.Count)
		}
		if r.Delay > 0 {
			s += fmt.Sprintf(",delay=%s", r.Delay)
		}
	}
	return s
}
