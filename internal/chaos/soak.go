package chaos

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// Options configures a soak drill.
type Options struct {
	// Seed anchors every random draw in the drill: round r runs under
	// RandomPlan(splitmix64(Seed^r), Menu). Re-running with the same
	// seed, menu and round count replays the identical fault sequence.
	Seed uint64

	// Rounds is how many independently drawn plans to run the workload
	// under. 0 means 1.
	Rounds int

	// Budget bounds each round's wall time; a round that has not
	// completed when it expires fails the soak — the liveness claim
	// under test is "faulty runs still finish unattended". 0 means
	// DefaultBudget.
	Budget time.Duration

	// Menu is the damage the drill may do. Required.
	Menu Menu

	// SettleTimeout bounds the post-drill wait for the goroutine count
	// to return to its pre-drill baseline (the leak check). 0 means
	// DefaultSettleTimeout.
	SettleTimeout time.Duration
}

// DefaultBudget is the per-round wall budget when Options.Budget is 0:
// generous next to a healthy round so only a genuine liveness failure
// (a hang nothing recovered) spends it.
const DefaultBudget = 2 * time.Minute

// DefaultSettleTimeout is the post-drill goroutine-settle allowance.
const DefaultSettleTimeout = 10 * time.Second

// goroutineSlack is how many goroutines above the pre-drill baseline
// the settle check tolerates: the runtime parks helper goroutines
// (timer and netpoll machinery) that are not leaks.
const goroutineSlack = 3

// RoundReport records one soak round for the drill's summary.
type RoundReport struct {
	Round      int
	Seed       uint64
	Plan       string  // PlanString of the drawn plan
	Injections int64   // faults actually fired during the round
	Seconds    float64 // round wall time
}

// Report summarizes a completed soak.
type Report struct {
	Rounds     []RoundReport
	Injections int64 // total faults fired across all rounds
}

// Soak runs the workload once per round, each round under a freshly
// drawn fault plan, and enforces the drill-level invariants: every
// round returns nil within its wall budget, and the process's goroutine
// count settles back to its pre-drill baseline afterwards (nothing the
// faults interrupted leaked a worker). The round callback receives the
// armed plan so it can include it in its own failure messages; content
// invariants — artifacts byte-identical to a fault-free run, servers
// answering health checks — belong in the callback, next to the
// workload that produces them.
//
// The previously armed fault plan (if any) is restored on return, so a
// soak composes with test-matrix runs that arm a global plan.
func Soak(ctx context.Context, opts Options, round func(ctx context.Context, r int, plan *fault.Plan) error) (*Report, error) {
	if len(opts.Menu) == 0 {
		return nil, errors.New("chaos: Soak requires a non-empty Menu")
	}
	rounds := opts.Rounds
	if rounds <= 0 {
		rounds = 1
	}
	budget := opts.Budget
	if budget <= 0 {
		budget = DefaultBudget
	}
	settle := opts.SettleTimeout
	if settle <= 0 {
		settle = DefaultSettleTimeout
	}

	prior := fault.Current()
	defer fault.Enable(prior)
	baseline := runtime.NumGoroutine()

	rep := &Report{}
	for r := 0; r < rounds; r++ {
		seed := splitmix64(opts.Seed ^ uint64(r))
		plan := RandomPlan(seed, opts.Menu)
		before := injectionCount()
		fault.Enable(plan)
		rctx, cancel := context.WithTimeout(ctx, budget)
		start := time.Now()
		err := round(rctx, r, plan)
		cancel()
		fault.Enable(prior)
		rr := RoundReport{
			Round:      r,
			Seed:       seed,
			Plan:       PlanString(plan),
			Injections: injectionCount() - before,
			Seconds:    time.Since(start).Seconds(),
		}
		rep.Rounds = append(rep.Rounds, rr)
		rep.Injections += rr.Injections
		if err != nil {
			return rep, fmt.Errorf("chaos: round %d (plan %q) failed after %.1fs with %d faults injected: %w",
				r, rr.Plan, rr.Seconds, rr.Injections, err)
		}
	}

	if err := settleGoroutines(baseline, settle); err != nil {
		return rep, err
	}
	return rep, nil
}

// injectionCount reads the fault package's global firing counter.
func injectionCount() int64 {
	return obs.DefaultRegistry.CounterValues()["fault.injections"]
}

// settleGoroutines waits for the goroutine count to drop back to the
// baseline (plus slack), polling briefly; a count that never settles
// means a fault stranded a worker — exactly the leak class hangs
// produce when some path forgets its context.
func settleGoroutines(baseline int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline+goroutineSlack {
			return nil
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			return fmt.Errorf("chaos: %d goroutines after drill, baseline %d — leak suspected\n%s",
				n, baseline, buf)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// RunToCompletion drives one fallible operation to success with bounded
// per-attempt wall time: a kill-and-restart loop in one process. Each
// attempt runs under a child context with
// attemptTimeout; an attempt that hangs at a context-honouring fault
// site is cancelled and retried, an attempt that fails is retried, and
// the operation is expected to make durable progress (checkpoints)
// between attempts so the sequence converges. Returns the number of
// attempts consumed alongside the first success or the final error.
func RunToCompletion(ctx context.Context, attemptTimeout time.Duration, maxAttempts int, op func(ctx context.Context) error) (int, error) {
	if maxAttempts <= 0 {
		maxAttempts = 1
	}
	var err error
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		actx, cancel := context.WithTimeout(ctx, attemptTimeout)
		err = op(actx)
		cancel()
		if err == nil {
			return attempt, nil
		}
		if ctx.Err() != nil {
			return attempt, fmt.Errorf("chaos: run abandoned after attempt %d: %w (last attempt: %v)", attempt, ctx.Err(), err)
		}
	}
	return maxAttempts, fmt.Errorf("chaos: still failing after %d attempts: %w", maxAttempts, err)
}

// ByteIdentical asserts two files hold identical bytes — the guarantee
// every checkpoint drill checks against its fault-free golden run.
func ByteIdentical(got, want string) error {
	g, err := os.ReadFile(got)
	if err != nil {
		return fmt.Errorf("chaos: %w", err)
	}
	w, err := os.ReadFile(want)
	if err != nil {
		return fmt.Errorf("chaos: %w", err)
	}
	if !bytes.Equal(g, w) {
		return fmt.Errorf("chaos: %s (%d bytes) differs from %s (%d bytes)", got, len(g), want, len(w))
	}
	return nil
}
