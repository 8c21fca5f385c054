package eval

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/fault"
)

// withPlan arms a fault plan for the test (nil disarms injection) and
// restores whatever plan the process had (the CI fault matrix arms one
// globally) on cleanup.
func withPlan(t *testing.T, p *fault.Plan) {
	t.Helper()
	prev := fault.Current()
	fault.Enable(p)
	t.Cleanup(func() { fault.Enable(prev) })
}

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
		t.Skip("exact panic counts do not hold under an ambient fault plan")
	}
	ev := &panicEvaluator{panicFirst: 1 << 30} // always panics
	e := NewEngine(ev, Options{Workers: 2})

	_, err := e.Evaluate(context.Background(), Request{Config: arch.Baseline(), Bench: "gzip"})
	if err == nil {
		t.Fatal("panicking backend returned no error")
	}
	var te *TaskError
	if !errors.As(err, &te) {
		t.Fatalf("err = %T %v, want *TaskError", err, err)
	}
	if !te.Panicked || te.Req.Bench != "gzip" {
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

// TestBackendErrorFailsOnce pins the single-call contract: a backend
// error runs the backend once and leaves as a *TaskError wrapping it.
func TestBackendErrorFailsOnce(t *testing.T) {
	if fault.Active() {
		t.Skip("exact backend call counts do not hold under an ambient fault plan")
	}
	boom := errors.New("backend failure")
	ev := &countingEvaluator{failFor: func(Request) error { return boom }}
	e := NewEngine(ev, Options{Workers: 2})

	_, err := e.Evaluate(context.Background(), Request{Config: arch.Baseline(), Bench: "gzip"})
	var te *TaskError
	if !errors.As(err, &te) || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want TaskError wrapping %v", err, boom)
	}
	if te.Panicked {
		t.Fatalf("TaskError = %+v, want a non-panic failure", te)
	}
	if got := ev.calls.Load(); got != 1 {
		t.Fatalf("failure ran the backend %d times, want 1", got)
	}
}

// TestRecoveredPanicLeavesNoState checks that a recovered panic fails
// only its own call: the next call on the same engine runs the backend
// afresh and gets the good value.
func TestRecoveredPanicLeavesNoState(t *testing.T) {
	if fault.Active() {
		t.Skip("exact backend call counts do not hold under an ambient fault plan")
	}
	ev := &panicEvaluator{panicFirst: 1}
	e := NewEngine(ev, Options{Workers: 2})
	req := Request{Config: arch.Baseline(), Bench: "gzip"}

	if _, err := e.Evaluate(context.Background(), req); err == nil {
		t.Fatal("first (panicking) evaluation should fail")
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

// TestInjectedFaultPlanFailsBatch arms evaluator errors, panics and
// delays over a multi-worker batch. The first failure fails the batch:
// nil results, a *TaskError carrying the injected cause, and every
// worker joined. With the plan disarmed, the same batch on the same
// engine equals a fault-free run, so nothing the faults interrupted
// leaks into later results.
func TestInjectedFaultPlanFailsBatch(t *testing.T) {
	withPlan(t, nil)
	reqs := testRequests(200)
	want, err := NewEngine(&countingEvaluator{}, Options{Workers: 4}).EvaluateBatch(context.Background(), reqs)
	if err != nil {
		t.Fatalf("fault-free batch: %v", err)
	}

	before := runtime.NumGoroutine()
	fault.Enable(&fault.Plan{Seed: 7, Rules: []fault.Rule{
		{Site: "eval.invoke", Kind: fault.KindError, Every: 5},
		{Site: "eval.invoke", Kind: fault.KindPanic, Every: 17},
		{Site: "eval.invoke", Kind: fault.KindDelay, Every: 9, Delay: 100 * time.Microsecond},
	}})
	e := NewEngine(&countingEvaluator{}, Options{Workers: 4})
	res, err := e.EvaluateBatch(context.Background(), reqs)
	if res != nil {
		t.Fatalf("failed batch returned %d results, want nil", len(res))
	}
	var te *TaskError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want *TaskError", err)
	}
	var inj *fault.Injected
	var pe *PanicError
	if !errors.As(err, &inj) && !errors.As(err, &pe) {
		t.Fatalf("cause = %v, want an injected error or a recovered panic", te.Err)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the failed batch, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}

	fault.Disable()
	got, err := e.EvaluateBatch(context.Background(), reqs)
	if err != nil {
		t.Fatalf("batch with the plan disarmed: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("result %d = %+v after the failed batch, fault-free run %+v", i, got[i], want[i])
		}
	}
}

// TestFatalInjectionKillsRunWithTypedError: an injected error at an
// exact visit kills a single-worker batch at that request, with the
// request named in the typed error and no backend call after it.
func TestFatalInjectionKillsRunWithTypedError(t *testing.T) {
	withPlan(t, &fault.Plan{Rules: []fault.Rule{
		{Site: "eval.invoke", Kind: fault.KindError, After: 10, Every: 1, Count: 1},
	}})
	ev := &countingEvaluator{}
	e := NewEngine(ev, Options{Workers: 1})
	reqs := testRequests(50)
	res, err := e.EvaluateBatch(context.Background(), reqs)
	var inj *fault.Injected
	if !errors.As(err, &inj) || inj.Visit != 11 {
		t.Fatalf("err = %v, want wrapped *fault.Injected at visit 11", err)
	}
	var te *TaskError
	if !errors.As(err, &te) || te.Req != reqs[10] {
		t.Fatalf("err = %v, want a *TaskError for request 10", err)
	}
	if res != nil || ev.calls.Load() != 10 {
		t.Fatalf("killed batch returned %d results after %d backend calls, want nil after 10", len(res), ev.calls.Load())
	}
}

// TestFailedTraceSynthesisNotMemoized checks that a failed trace
// synthesis fails only its own evaluation: the next evaluation of the
// benchmark synthesizes afresh and returns the fault-free result.
func TestFailedTraceSynthesisNotMemoized(t *testing.T) {
	withPlan(t, nil)
	req := Request{Config: arch.Baseline(), Bench: "gzip"}
	want, err := NewEngine(NewSimulator(2000), Options{Workers: 1}).Evaluate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	fault.Enable(&fault.Plan{Rules: []fault.Rule{
		{Site: "trace.synth", Kind: fault.KindError, Every: 1, Count: 1},
	}})
	e := NewEngine(NewSimulator(2000), Options{Workers: 1})
	_, err = e.Evaluate(context.Background(), req)
	var te *TaskError
	var inj *fault.Injected
	if !errors.As(err, &te) || !errors.As(err, &inj) {
		t.Fatalf("first evaluation: err = %v, want a *TaskError wrapping *fault.Injected", err)
	}
	got, err := e.Evaluate(context.Background(), req)
	if err != nil {
		t.Fatalf("second evaluation: %v", err)
	}
	if got != want {
		t.Fatalf("second evaluation = %+v, fault-free %+v", got, want)
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
