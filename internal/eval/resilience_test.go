package eval

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/fault"
)

// withPlan arms a fault plan for the test and restores whatever plan the
// process had (the CI fault matrix arms one globally) on cleanup.
func withPlan(t *testing.T, p *fault.Plan) {
	t.Helper()
	prev := fault.Current()
	fault.Enable(p)
	t.Cleanup(func() { fault.Enable(prev) })
}

// transientTestErr is a backend error that classifies itself retryable.
type transientTestErr struct{}

func (transientTestErr) Error() string     { return "transient backend failure" }
func (transientTestErr) IsTransient() bool { return true }

// panicEvaluator panics on its first panicFirst calls, then succeeds
// with a fixed deterministic result.
type panicEvaluator struct {
	calls      atomic.Int64
	panicFirst int64
}

func (p *panicEvaluator) Evaluate(cfg arch.Config, bench string) (float64, float64, error) {
	if p.calls.Add(1) <= p.panicFirst {
		panic("backend exploded")
	}
	return 1.5, 42, nil
}

func TestPanicConvertedToTypedTaskError(t *testing.T) {
	if fault.Active() {
		t.Skip("exact attempt counts do not hold under an ambient fault plan")
	}
	ev := &panicEvaluator{panicFirst: 1 << 30} // always panics
	e := NewEngine(ev, Options{Workers: 2, Retries: -1})

	_, err := e.Evaluate(context.Background(), Request{Config: arch.Baseline(), Bench: "gzip"})
	if err == nil {
		t.Fatal("panicking backend returned no error")
	}
	var te *TaskError
	if !errors.As(err, &te) {
		t.Fatalf("err = %T %v, want *TaskError", err, err)
	}
	if !te.Panicked || te.Attempts != 1 || te.Req.Bench != "gzip" {
		t.Fatalf("TaskError = %+v", te)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("cause = %v, want *PanicError", te.Err)
	}
	if st := e.Stats(); st.PanicsRecovered != 1 {
		t.Fatalf("PanicsRecovered = %d, want 1", st.PanicsRecovered)
	}
}

func TestPanicRetriedThenSucceeds(t *testing.T) {
	if fault.Active() {
		t.Skip("exact attempt counts do not hold under an ambient fault plan")
	}
	ev := &panicEvaluator{panicFirst: 1}
	e := NewEngine(ev, Options{Workers: 2, RetryBackoff: time.Microsecond})

	res, err := e.Evaluate(context.Background(), Request{Config: arch.Baseline(), Bench: "gzip"})
	if err != nil {
		t.Fatalf("retry did not absorb the panic: %v", err)
	}
	if res.BIPS != 1.5 || res.Watts != 42 {
		t.Fatalf("result = %+v", res)
	}
	st := e.Stats()
	if st.PanicsRecovered != 1 || st.Retries != 1 {
		t.Fatalf("PanicsRecovered=%d Retries=%d, want 1/1", st.PanicsRecovered, st.Retries)
	}
}

func TestTransientErrorRetried(t *testing.T) {
	if fault.Active() {
		t.Skip("exact attempt counts do not hold under an ambient fault plan")
	}
	var failures atomic.Int64
	failures.Store(1)
	ev := &countingEvaluator{failFor: func(Request) error {
		if failures.Add(-1) >= 0 {
			return transientTestErr{}
		}
		return nil
	}}
	e := NewEngine(ev, Options{Workers: 2, RetryBackoff: time.Microsecond})

	if _, err := e.Evaluate(context.Background(), Request{Config: arch.Baseline(), Bench: "gzip"}); err != nil {
		t.Fatalf("retry did not absorb the transient error: %v", err)
	}
	if got := ev.calls.Load(); got != 2 {
		t.Fatalf("backend ran %d times, want 2", got)
	}
	if st := e.Stats(); st.Retries != 1 {
		t.Fatalf("Retries = %d, want 1", st.Retries)
	}
}

func TestPermanentErrorNotRetried(t *testing.T) {
	if fault.Active() {
		t.Skip("exact attempt counts do not hold under an ambient fault plan")
	}
	boom := errors.New("permanent")
	ev := &countingEvaluator{failFor: func(Request) error { return boom }}
	e := NewEngine(ev, Options{Workers: 2})

	_, err := e.Evaluate(context.Background(), Request{Config: arch.Baseline(), Bench: "gzip"})
	var te *TaskError
	if !errors.As(err, &te) || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want TaskError wrapping %v", err, boom)
	}
	if te.Attempts != 1 || te.Panicked {
		t.Fatalf("TaskError = %+v, want 1 non-panic attempt", te)
	}
	if got := ev.calls.Load(); got != 1 {
		t.Fatalf("permanent failure ran the backend %d times, want 1", got)
	}
}

func TestRetryBudgetExhausted(t *testing.T) {
	if fault.Active() {
		t.Skip("exact attempt counts do not hold under an ambient fault plan")
	}
	ev := &countingEvaluator{failFor: func(Request) error { return transientTestErr{} }}
	e := NewEngine(ev, Options{Workers: 2, Retries: 1, RetryBackoff: time.Microsecond})

	_, err := e.Evaluate(context.Background(), Request{Config: arch.Baseline(), Bench: "gzip"})
	var te *TaskError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want *TaskError", err)
	}
	if te.Attempts != 2 {
		t.Fatalf("Attempts = %d, want 2 (1 + Retries)", te.Attempts)
	}
	var tte transientTestErr
	if !errors.As(err, &tte) {
		t.Fatalf("cause lost: %v", err)
	}
}

func TestCacheNotPoisonedByPanic(t *testing.T) {
	if fault.Active() {
		t.Skip("exact attempt counts do not hold under an ambient fault plan")
	}
	ev := &panicEvaluator{panicFirst: 1}
	e := NewEngine(ev, Options{Workers: 2, Retries: -1})
	req := Request{Config: arch.Baseline(), Bench: "gzip"}

	if _, err := e.Evaluate(context.Background(), req); err == nil {
		t.Fatal("first (panicking) evaluation should fail with retry disabled")
	}
	res, err := e.Evaluate(context.Background(), req)
	if err != nil {
		t.Fatalf("evaluation after recovered panic: %v", err)
	}
	if res.BIPS != 1.5 {
		t.Fatalf("result = %+v", res)
	}
	// A recovered panic leaves nothing behind: the third call runs the
	// backend again and gets the same good value.
	if res, err := e.Evaluate(context.Background(), req); err != nil || res.BIPS != 1.5 {
		t.Fatalf("third evaluation = %+v, %v", res, err)
	}
	if got := ev.calls.Load(); got != 3 {
		t.Fatalf("backend ran %d times, want 3 (one per call)", got)
	}
}

func TestInjectedFaultPlanAbsorbedDeterministically(t *testing.T) {
	run := func() ([]Result, EngineStats, error) {
		// Fresh Enable resets rule counters so both runs see the identical
		// fault sequence.
		fault.Enable(&fault.Plan{Seed: 7, Rules: []fault.Rule{
			{Site: "eval.invoke", Kind: fault.KindError, Every: 5},
			{Site: "eval.invoke", Kind: fault.KindPanic, Every: 17},
			{Site: "eval.invoke", Kind: fault.KindDelay, Every: 9, Delay: 100 * time.Microsecond},
		}})
		// Retries generous relative to the fault density: with every=5
		// errors, back-to-back attempts have a real chance of re-hitting a
		// firing visit, and the test is about absorption, not budgets.
		e := NewEngine(&countingEvaluator{}, Options{Workers: 4, Retries: 8, RetryBackoff: time.Microsecond})
		res, err := e.EvaluateBatch(context.Background(), testRequests(200))
		return res, e.Stats(), err
	}
	prev := fault.Current()
	t.Cleanup(func() { fault.Enable(prev) })

	a, stA, errA := run()
	b, _, errB := run()
	if errA != nil || errB != nil {
		t.Fatalf("batches under injection failed: %v / %v", errA, errB)
	}
	if len(a) != len(b) {
		t.Fatalf("result lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("result %d differs across identical fault plans: %+v vs %+v", i, a[i], b[i])
		}
	}
	if stA.Retries == 0 || stA.PanicsRecovered == 0 {
		t.Fatalf("injection did not exercise recovery: %+v", stA)
	}
}

func TestFatalInjectionKillsRunWithTypedError(t *testing.T) {
	withPlan(t, &fault.Plan{Rules: []fault.Rule{
		{Site: "eval.invoke", Kind: fault.KindFatal, After: 10, Every: 1, Count: 1},
	}})
	e := NewEngine(&countingEvaluator{}, Options{Workers: 1, RetryBackoff: time.Microsecond})
	_, err := e.EvaluateBatch(context.Background(), testRequests(50))
	var inj *fault.Injected
	if !errors.As(err, &inj) {
		t.Fatalf("err = %v, want wrapped *fault.Injected", err)
	}
	if inj.Transient {
		t.Fatal("fatal injection classified transient")
	}
	var te *TaskError
	if !errors.As(err, &te) || te.Attempts != 1 {
		t.Fatalf("fatal injection was retried: %v", err)
	}
}

func TestBatchTimeoutEnforced(t *testing.T) {
	ev := &countingEvaluator{delay: 10 * time.Millisecond}
	e := NewEngine(ev, Options{Workers: 2, BatchTimeout: 25 * time.Millisecond})
	start := time.Now()
	_, err := e.EvaluateBatch(context.Background(), testRequests(500))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline enforced only after %v", elapsed)
	}
	// The deadline is per batch, not per engine: a later cheap batch on
	// the same engine succeeds.
	ev.delay = 0
	if _, err := e.EvaluateBatch(context.Background(), testRequests(4)); err != nil {
		t.Fatalf("batch after an expired batch: %v", err)
	}
}

func TestSweepTimeoutEnforced(t *testing.T) {
	e := NewEngine(&countingEvaluator{}, Options{Workers: 2, BatchTimeout: 20 * time.Millisecond})
	err := e.Sweep(context.Background(), 1_000_000, func(lo, hi int) error {
		time.Sleep(5 * time.Millisecond)
		return nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

func TestCancelledBatchReturnsNoPartialResults(t *testing.T) {
	release := make(chan struct{})
	ev := &countingEvaluator{block: release}
	e := NewEngine(ev, Options{Workers: 2})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var res []Result
	var err error
	go func() {
		defer close(done)
		res, err = e.EvaluateBatch(ctx, testRequests(50))
	}()
	for e.Stats().InFlight < 1 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	close(release)
	<-done

	// The partial-results contract: a failed or cancelled batch returns
	// nil results, never a half-filled slice the caller could mistake for
	// a complete one.
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("cancelled batch returned %d partial results, want nil", len(res))
	}
}

// TestRetryDelayJitterDeterministicAndDecorrelated pins the backoff
// jitter's contract: bounded by [0.5, 1.5) of the doubled base,
// bit-reproducible for the same (request, attempt), and different
// across distinct requests so co-scheduled workers that share a
// transient fault do not retry in lockstep.
func TestRetryDelayJitterDeterministicAndDecorrelated(t *testing.T) {
	e := NewEngine(&panicEvaluator{}, Options{Workers: 1, RetryBackoff: time.Millisecond})
	reqA := Request{Config: arch.Baseline(), Bench: "gzip"}
	cfgB := arch.Baseline()
	cfgB.Width = cfgB.Width * 2
	reqB := Request{Config: cfgB, Bench: "gzip"}

	for attempt := 1; attempt <= 4; attempt++ {
		base := time.Millisecond << uint(attempt-1)
		d := e.retryDelay(reqA, attempt)
		if d < base/2 || d >= base+base/2 {
			t.Fatalf("attempt %d delay %v outside [%v, %v)", attempt, d, base/2, base+base/2)
		}
		if again := e.retryDelay(reqA, attempt); again != d {
			t.Fatalf("attempt %d delay not deterministic: %v then %v", attempt, d, again)
		}
	}
	if e.retryDelay(reqA, 1) == e.retryDelay(reqB, 1) {
		t.Fatal("distinct requests drew identical jitter (lockstep retries)")
	}
	if e.retryDelay(reqA, 1)*2 == e.retryDelay(reqA, 2) {
		t.Fatal("attempts are perfectly correlated; jitter must redraw per attempt")
	}
}
