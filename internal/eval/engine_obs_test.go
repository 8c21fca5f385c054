package eval

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/obs"
)

// withObsTracing enables tracing on a fresh tracer for one test and
// restores the previous process-wide state afterwards. Tests using it
// must not run in parallel.
func withObsTracing(t *testing.T, capacity int) *obs.Tracer {
	t.Helper()
	prev := obs.DefaultTracer
	prevEnabled := obs.Enabled()
	obs.DefaultTracer = obs.NewTracer(capacity)
	obs.Enable(true)
	t.Cleanup(func() {
		obs.DefaultTracer = prev
		obs.Enable(prevEnabled)
	})
	return obs.DefaultTracer
}

// uniqueRequests builds n requests with pairwise-distinct cache keys.
func uniqueRequests(n int) []Request {
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Config: testConfig(i), Bench: fmt.Sprintf("u%d", i)}
	}
	return reqs
}

// TestStatsEpoch verifies delta-since-epoch semantics: each call reports
// only the work since the previous call, while Stats() keeps lifetime
// totals, so sequential phases in one process don't double-count.
func TestStatsEpoch(t *testing.T) {
	e := NewEngine(&countingEvaluator{}, Options{Workers: 4})
	reqs := uniqueRequests(32)

	if _, err := e.EvaluateBatch(context.Background(), reqs); err != nil {
		t.Fatal(err)
	}
	first := e.StatsEpoch()
	if first.Evaluations != 32 || first.CacheMisses != 32 || first.CacheHits != 0 {
		t.Fatalf("first epoch = %+v, want 32 evaluations/misses", first)
	}
	if first.Workers != 4 {
		t.Fatalf("epoch workers = %d, want the gauge passed through", first.Workers)
	}

	// Second pass over the same keys is all cache hits; the epoch delta
	// must contain only that.
	if _, err := e.EvaluateBatch(context.Background(), reqs); err != nil {
		t.Fatal(err)
	}
	second := e.StatsEpoch()
	if second.Evaluations != 0 || second.CacheMisses != 0 || second.CacheHits != 32 {
		t.Fatalf("second epoch = %+v, want 32 hits only", second)
	}

	// An immediate third epoch has seen no traffic at all.
	third := e.StatsEpoch()
	if third.Evaluations != 0 || third.CacheHits != 0 || third.CacheMisses != 0 || third.SweptPoints != 0 {
		t.Fatalf("idle epoch = %+v, want zero deltas", third)
	}

	// Lifetime totals are unaffected by epoch resets.
	st := e.Stats()
	if st.Evaluations != 32 || st.CacheHits != 32 || st.CacheMisses != 32 {
		t.Fatalf("lifetime stats = %+v, want 32/32/32", st)
	}
}

// TestSpanNestingConcurrentBatch runs a traced EvaluateBatch across many
// workers and checks every per-evaluation span is parented to the batch
// span and nested within its interval. Under -race this also exercises
// the lock-free span ring from the engine's worker pool.
func TestSpanNestingConcurrentBatch(t *testing.T) {
	tr := withObsTracing(t, 256)
	e := NewEngine(&countingEvaluator{}, Options{Workers: 8, NoCache: true, Name: "spantest"})
	const n = 64
	if _, err := e.EvaluateBatch(context.Background(), uniqueRequests(n)); err != nil {
		t.Fatal(err)
	}

	spans := tr.Snapshot()
	var batch *obs.SpanRecord
	invokes := 0
	for i := range spans {
		switch spans[i].Name {
		case "eval.spantest.batch":
			if batch != nil {
				t.Fatal("more than one batch span recorded")
			}
			batch = &spans[i]
		case "eval.spantest.invoke":
			invokes++
		}
	}
	if batch == nil {
		t.Fatal("no batch span recorded")
	}
	if invokes != n {
		t.Fatalf("recorded %d invoke spans, want %d", invokes, n)
	}
	batchEnd := batch.StartNS + batch.DurNS
	for _, s := range spans {
		if s.Name != "eval.spantest.invoke" {
			continue
		}
		if s.Parent != batch.ID {
			t.Fatalf("invoke span parent = %d, want batch span %d", s.Parent, batch.ID)
		}
		if s.StartNS < batch.StartNS {
			t.Fatal("invoke span started before its batch span")
		}
		if s.StartNS+s.DurNS > batchEnd {
			t.Fatal("invoke span ended after its batch span")
		}
	}

	// The per-invoke latency histogram saw every evaluation.
	if got := obs.DefaultRegistry.Histogram("eval.spantest.invoke").Snapshot().Count; got < n {
		t.Fatalf("invoke histogram count = %d, want >= %d", got, n)
	}
}

// TestSweepTracedMatchesUntraced checks that enabling observability does
// not change Sweep behaviour: same tiles covered, same swept-point count,
// plus tile spans nested under the sweep span.
func TestSweepTracedMatchesUntraced(t *testing.T) {
	tr := withObsTracing(t, 256)
	e := NewEngine(&countingEvaluator{}, Options{Workers: 4, Name: "sweeptest"})
	const n = 1000
	covered := make([]int32, n)
	err := e.Sweep(context.Background(), n, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			covered[i]++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range covered {
		if c != 1 {
			t.Fatalf("index %d covered %d times", i, c)
		}
	}
	if got := e.Stats().SweptPoints; got != n {
		t.Fatalf("swept points = %d, want %d", got, n)
	}

	spans := tr.Snapshot()
	var sweep *obs.SpanRecord
	tiles := 0
	for i := range spans {
		switch spans[i].Name {
		case "eval.sweeptest.sweep":
			sweep = &spans[i]
		case "eval.sweeptest.tile":
			tiles++
		}
	}
	if sweep == nil {
		t.Fatal("no sweep span recorded")
	}
	if tiles == 0 {
		t.Fatal("no tile spans recorded")
	}
	for _, s := range spans {
		if s.Name == "eval.sweeptest.tile" && s.Parent != sweep.ID {
			t.Fatalf("tile span parent = %d, want sweep span %d", s.Parent, sweep.ID)
		}
	}
}

// TestEngineStatsSub pins Sub's delta semantics: counters are
// differenced, gauges (Degraded, InFlight, Workers) carried from the
// newer snapshot untouched. StatsEpoch is built on Sub.
func TestEngineStatsSub(t *testing.T) {
	base := EngineStats{
		Evaluations: 10, CacheHits: 5, CacheMisses: 5, SweptPoints: 100,
		BatchCalls: 2, WarmHits: 3, WarmMisses: 1, PanicsRecovered: 1,
		Retries: 2, GuardChecks: 4, GuardDivergences: 1,
		Degraded: true, InFlight: 9, Workers: 2,
	}
	cur := EngineStats{
		Evaluations: 25, CacheHits: 11, CacheMisses: 9, SweptPoints: 350,
		BatchCalls: 5, WarmHits: 7, WarmMisses: 2, PanicsRecovered: 1,
		Retries: 6, GuardChecks: 9, GuardDivergences: 1,
		Degraded: false, InFlight: 3, Workers: 4,
	}
	want := EngineStats{
		Evaluations: 15, CacheHits: 6, CacheMisses: 4, SweptPoints: 250,
		BatchCalls: 3, WarmHits: 4, WarmMisses: 1, PanicsRecovered: 0,
		Retries: 4, GuardChecks: 5, GuardDivergences: 0,
		Degraded: false, InFlight: 3, Workers: 4,
	}
	if got := cur.Sub(base); got != want {
		t.Fatalf("Sub = %+v, want %+v", got, want)
	}
	// Add undoes Sub on the counters and carries the gauges of its
	// receiver.
	if got := want.Add(base); got != cur {
		t.Fatalf("Add = %+v, want %+v", got, cur)
	}
}
