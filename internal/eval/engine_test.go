package eval

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/fault"
)

// countingEvaluator is a deterministic fake backend that records every
// invocation and can be made slow, blocking or failing per request.
type countingEvaluator struct {
	calls   atomic.Int64
	perKey  sync.Map // Request -> *atomic.Int64
	delay   time.Duration
	block   chan struct{} // if non-nil, Evaluate waits for close
	failFor func(Request) error
}

func (c *countingEvaluator) Evaluate(cfg arch.Config, bench string) (float64, float64, error) {
	req := Request{Config: cfg, Bench: bench}
	c.calls.Add(1)
	v, _ := c.perKey.LoadOrStore(req, new(atomic.Int64))
	v.(*atomic.Int64).Add(1)
	if c.block != nil {
		<-c.block
	}
	if c.delay > 0 {
		time.Sleep(c.delay)
	}
	if c.failFor != nil {
		if err := c.failFor(req); err != nil {
			return 0, 0, err
		}
	}
	// A deterministic function of the inputs so ordering tests can check
	// values, not just lengths.
	return float64(cfg.DepthFO4) + float64(len(bench)), float64(cfg.DL1KB), nil
}

func testConfig(i int) arch.Config {
	cfg := arch.Baseline()
	cfg.DepthFO4 = 9 + (i % 28)
	cfg.DL1KB = 8 << (i % 4)
	return cfg
}

func testRequests(n int) []Request {
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Config: testConfig(i), Bench: fmt.Sprintf("b%d", i%7)}
	}
	return reqs
}

// skipUnderFaultPlan skips tests whose assertions (exact backend call
// counts, exact error identity) only hold in a fault-free world; the CI
// fault matrix arms a process-wide plan that adds retries and injected
// failures.
func skipUnderFaultPlan(t *testing.T) {
	t.Helper()
	if fault.Active() {
		t.Skip("assertions require a fault-free run; an ambient fault plan is armed")
	}
}

func TestSingleflightOneEvaluationPerKey(t *testing.T) {
	skipUnderFaultPlan(t)
	ev := &countingEvaluator{delay: 2 * time.Millisecond}
	e := NewEngine(ev, Options{Workers: 8})
	req := Request{Config: arch.Baseline(), Bench: "gzip"}

	const callers = 32
	var wg sync.WaitGroup
	results := make([]Result, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = e.Evaluate(context.Background(), req)
		}(i)
	}
	wg.Wait()

	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if results[i] != results[0] {
			t.Fatalf("caller %d got %v, want %v", i, results[i], results[0])
		}
	}
	if got := ev.calls.Load(); got != 1 {
		t.Fatalf("backend ran %d times for one key, want exactly 1", got)
	}
	st := e.Stats()
	if st.CacheMisses != 1 || st.CacheHits != callers-1 {
		t.Fatalf("stats misses=%d hits=%d, want 1 and %d", st.CacheMisses, st.CacheHits, callers-1)
	}
}

func TestBatchDeterministicOrdering(t *testing.T) {
	reqs := testRequests(300)
	var want []Result
	for _, workers := range []int{1, 2, 3, runtime.GOMAXPROCS(0), 2 * runtime.GOMAXPROCS(0)} {
		e := NewEngine(&countingEvaluator{}, Options{Workers: workers, NoCache: true})
		got, err := e.EvaluateBatch(context.Background(), reqs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(reqs) {
			t.Fatalf("workers=%d: %d results for %d requests", workers, len(got), len(reqs))
		}
		for i, r := range got {
			wantR := Result{
				BIPS:  float64(reqs[i].Config.DepthFO4) + float64(len(reqs[i].Bench)),
				Watts: float64(reqs[i].Config.DL1KB),
			}
			if r != wantR {
				t.Fatalf("workers=%d: result %d = %v, want %v", workers, i, r, wantR)
			}
		}
		if want == nil {
			want = got
		}
	}
}

func TestBatchFirstErrorCancelsOutstandingWork(t *testing.T) {
	skipUnderFaultPlan(t)
	boom := errors.New("boom")
	ev := &countingEvaluator{
		delay: time.Millisecond,
		failFor: func(r Request) error {
			if r.Bench == "b0" {
				return boom
			}
			return nil
		},
	}
	e := NewEngine(ev, Options{Workers: 4, NoCache: true})
	const n = 500
	start := time.Now()
	_, err := e.EvaluateBatch(context.Background(), testRequests(n))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	// The failure hits within the first handful of evaluations (bench
	// cycles every 7 requests); cancellation must stop the batch long
	// before all n requests run.
	if got := ev.calls.Load(); got >= n/2 {
		t.Fatalf("ran %d of %d evaluations after early failure", got, n)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("batch took %v to fail", elapsed)
	}
}

func TestBatchContextCancellation(t *testing.T) {
	release := make(chan struct{})
	ev := &countingEvaluator{block: release}
	e := NewEngine(ev, Options{Workers: 2})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := e.EvaluateBatch(ctx, testRequests(50))
		done <- err
	}()

	// Wait until the workers are inside the backend, then cancel.
	for e.Stats().InFlight < 2 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	close(release)

	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled batch did not return")
	}
	if got := ev.calls.Load(); got > 4 {
		t.Fatalf("%d evaluations ran after immediate cancel", got)
	}
}

func TestEvaluateWaiterHonorsCancellation(t *testing.T) {
	skipUnderFaultPlan(t)
	release := make(chan struct{})
	ev := &countingEvaluator{block: release}
	e := NewEngine(ev, Options{Workers: 2})
	req := Request{Config: arch.Baseline(), Bench: "gzip"}

	// Owner starts and blocks inside the backend.
	ownerDone := make(chan struct{})
	go func() {
		defer close(ownerDone)
		if _, err := e.Evaluate(context.Background(), req); err != nil {
			t.Errorf("owner: %v", err)
		}
	}()
	for e.Stats().InFlight < 1 {
		time.Sleep(time.Millisecond)
	}

	// A waiter with a short deadline must give up without waiting for
	// the owner.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := e.Evaluate(ctx, req); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waiter err = %v, want deadline exceeded", err)
	}

	close(release)
	<-ownerDone
	if got := ev.calls.Load(); got != 1 {
		t.Fatalf("backend ran %d times, want 1", got)
	}
}

func TestFailedEvaluationIsNotCached(t *testing.T) {
	skipUnderFaultPlan(t)
	var failures atomic.Int64
	failures.Store(1)
	ev := &countingEvaluator{failFor: func(Request) error {
		if failures.Add(-1) >= 0 {
			return errors.New("transient")
		}
		return nil
	}}
	e := NewEngine(ev, Options{Workers: 2})
	req := Request{Config: arch.Baseline(), Bench: "gzip"}

	if _, err := e.Evaluate(context.Background(), req); err == nil {
		t.Fatal("first evaluation should fail")
	}
	if _, err := e.Evaluate(context.Background(), req); err != nil {
		t.Fatalf("retry after failure: %v", err)
	}
	if got := ev.calls.Load(); got != 2 {
		t.Fatalf("backend ran %d times, want 2 (failure not cached)", got)
	}
}

func TestEngineGoroutineLifecycle(t *testing.T) {
	before := runtime.NumGoroutine()

	e := NewEngine(&countingEvaluator{}, Options{Workers: 8})
	for i := 0; i < 3; i++ {
		if _, err := e.EvaluateBatch(context.Background(), testRequests(200)); err != nil {
			t.Fatal(err)
		}
	}
	// A cancelled batch must also leave nothing behind.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.EvaluateBatch(ctx, testRequests(200)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch err = %v", err)
	}
	e.Close()

	if _, err := e.EvaluateBatch(context.Background(), testRequests(10)); !errors.Is(err, ErrClosed) {
		t.Fatalf("batch after Close err = %v, want ErrClosed", err)
	}
	// Evaluate after Close still serves from cache state (Close fences
	// batches), but must not panic.
	if _, err := e.Evaluate(context.Background(), testRequests(1)[0]); err != nil {
		t.Fatalf("evaluate after close: %v", err)
	}

	// All batch workers are joined before EvaluateBatch returns; give the
	// runtime a moment to retire exiting goroutines, then compare.
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestEvaluateIndexedGeneratesRequestsOnDemand(t *testing.T) {
	e := NewEngine(&countingEvaluator{}, Options{Workers: 4, NoCache: true})
	n := 1000
	res, err := e.EvaluateIndexed(context.Background(), n, func(i int) Request {
		return Request{Config: testConfig(i), Bench: "gen"}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != n {
		t.Fatalf("%d results, want %d", len(res), n)
	}
	for i, r := range res {
		if want := float64(testConfig(i).DepthFO4) + 3; r.BIPS != want {
			t.Fatalf("result %d bips = %v, want %v", i, r.BIPS, want)
		}
	}
}

func TestStatsCounters(t *testing.T) {
	skipUnderFaultPlan(t)
	ev := &countingEvaluator{}
	e := NewEngine(ev, Options{Workers: 2})
	// Unique bench per request keeps all 64 keys distinct.
	reqs := make([]Request, 64)
	for i := range reqs {
		reqs[i] = Request{Config: testConfig(i), Bench: fmt.Sprintf("u%d", i)}
	}
	if _, err := e.EvaluateBatch(context.Background(), reqs); err != nil {
		t.Fatal(err)
	}
	// Second pass over the same keys must be all hits.
	if _, err := e.EvaluateBatch(context.Background(), reqs); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Evaluations != 64 {
		t.Fatalf("evaluations = %d, want 64", st.Evaluations)
	}
	if st.CacheHits != 64 || st.CacheMisses != 64 {
		t.Fatalf("hits=%d misses=%d, want 64/64", st.CacheHits, st.CacheMisses)
	}
	if st.InFlight != 0 {
		t.Fatalf("inflight = %d at rest", st.InFlight)
	}
	if hr := st.HitRate(); hr != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", hr)
	}
	if st.Workers != 2 {
		t.Fatalf("workers = %d, want 2", st.Workers)
	}
}

func TestEmptyBatch(t *testing.T) {
	e := NewEngine(&countingEvaluator{}, Options{})
	res, err := e.EvaluateBatch(context.Background(), nil)
	if err != nil || res != nil {
		t.Fatalf("empty batch = %v, %v", res, err)
	}
}

func TestBatchCallsCounter(t *testing.T) {
	skipUnderFaultPlan(t)
	e := NewEngine(&countingEvaluator{}, Options{Workers: 2})
	// Three batches of eight: BatchCalls counts engine invocations, not
	// the requests inside them.
	for i := 0; i < 3; i++ {
		if _, err := e.EvaluateBatch(context.Background(), testRequests(8)); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Stats(); st.BatchCalls != 3 {
		t.Fatalf("BatchCalls = %d, want 3", st.BatchCalls)
	}
	// Empty batches return before the engine does any work and are not
	// counted as batch calls.
	if _, err := e.EvaluateBatch(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.BatchCalls != 3 {
		t.Fatalf("BatchCalls after empty batch = %d, want 3", st.BatchCalls)
	}
	// Epoch deltas: first epoch absorbs the three calls, the next sees
	// only what happened since.
	if d := e.StatsEpoch(); d.BatchCalls != 3 {
		t.Fatalf("epoch BatchCalls = %d, want 3", d.BatchCalls)
	}
	if _, err := e.EvaluateBatch(context.Background(), testRequests(4)); err != nil {
		t.Fatal(err)
	}
	if d := e.StatsEpoch(); d.BatchCalls != 1 {
		t.Fatalf("second epoch BatchCalls = %d, want 1", d.BatchCalls)
	}
}
