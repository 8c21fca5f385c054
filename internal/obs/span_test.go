package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

// withTracing enables tracing on a fresh default tracer for one test and
// restores the previous state afterwards. Tests mutating process-wide
// observability state must not run in parallel.
func withTracing(t *testing.T, capacity int) *Tracer {
	t.Helper()
	prevTracer := DefaultTracer
	prevEnabled := Enabled()
	DefaultTracer = NewTracer(capacity)
	Enable(true)
	t.Cleanup(func() {
		DefaultTracer = prevTracer
		Enable(prevEnabled)
	})
	return DefaultTracer
}

func TestSpanDisabledIsNoOp(t *testing.T) {
	Enable(false)
	ctx, sp := Start(context.Background(), "x")
	if sp != nil {
		t.Fatal("disabled tracing returned a live span")
	}
	if ctx != context.Background() {
		t.Fatal("disabled tracing derived a new context")
	}
	// All methods must be nil-safe.
	sp.End()
	if c := sp.Child("child"); c != nil {
		t.Fatal("child of nil span with tracing off should be nil")
	}
	if Begin("y") != nil {
		t.Fatal("Begin with tracing off should be nil")
	}
}

func TestSpanNestingThroughContext(t *testing.T) {
	tr := withTracing(t, 64)

	ctx, parent := Start(context.Background(), "parent", String("kind", "test"))
	_, child := Start(ctx, "child")
	child.End()
	_, child2 := Start(ctx, "child2")
	child2.End()
	parent.End()

	spans := tr.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	p := byName["parent"]
	for _, name := range []string{"child", "child2"} {
		c, ok := byName[name]
		if !ok {
			t.Fatalf("span %q not recorded", name)
		}
		if c.Parent != p.ID {
			t.Fatalf("%s.Parent = %d, want parent ID %d", name, c.Parent, p.ID)
		}
		if c.StartNS < p.StartNS {
			t.Fatalf("%s started before its parent", name)
		}
		if end, pend := c.StartNS+c.DurNS, p.StartNS+p.DurNS; end > pend {
			t.Fatalf("%s ended after its parent (%d > %d)", name, end, pend)
		}
	}
	if p.Parent != 0 {
		t.Fatalf("root span has parent %d", p.Parent)
	}
	if got := p.Attrs[0]; got.Key != "kind" || got.Value != "test" {
		t.Fatalf("attr = %+v", got)
	}
}

func TestSpanChildWithoutContext(t *testing.T) {
	tr := withTracing(t, 64)
	root := Begin("root")
	kid := root.Child("kid", Int("i", 7))
	kid.End()
	root.End()
	spans := tr.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[1].Parent != spans[0].ID {
		t.Fatalf("child parent = %d, want %d", spans[1].Parent, spans[0].ID)
	}
}

// TestSpanRingConcurrent hammers a tiny ring from many goroutines —
// under -race this verifies the lock-free publish path — and checks the
// ring stays bounded while the lifetime total keeps counting.
func TestSpanRingConcurrent(t *testing.T) {
	tr := withTracing(t, 16) // deliberately tiny: constant overwrites
	const goroutines, each = 8, 200
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < each; i++ {
				c, sp := Start(ctx, "work")
				_, inner := Start(c, "inner")
				inner.End()
				sp.End()
			}
		}()
	}
	wg.Wait()

	if got := tr.Total(); got != goroutines*each*2 {
		t.Fatalf("total = %d, want %d", got, goroutines*each*2)
	}
	spans := tr.Snapshot()
	if len(spans) == 0 || len(spans) > tr.Capacity() {
		t.Fatalf("snapshot has %d spans, ring capacity %d", len(spans), tr.Capacity())
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].StartNS < spans[i-1].StartNS {
			t.Fatal("snapshot not ordered by start time")
		}
	}
}

func TestWriteSpansJSONL(t *testing.T) {
	tr := withTracing(t, 16)
	Begin("a", String("x", "1")).End()
	Begin("b").End()
	var sb strings.Builder
	if err := WriteSpans(&sb, tr.Snapshot()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, "{") || !strings.HasSuffix(l, "}") {
			t.Fatalf("line is not a JSON object: %s", l)
		}
	}
	if !strings.Contains(lines[0], `"name":"a"`) {
		t.Fatalf("first line missing span name: %s", lines[0])
	}
}

func TestStartProgressDisabled(t *testing.T) {
	Enable(false)
	stop := StartProgress("sweep", 100, func() int64 { return 0 })
	stop() // must be a no-op, not a panic
}

func TestStartProgressRuns(t *testing.T) {
	withTracing(t, 16)
	var sb strings.Builder
	prev := progressWriter
	progressWriter = &sb
	defer func() { progressWriter = prev }()

	stop := StartProgress("sweep", 10, func() int64 { return 5 })
	time.Sleep(10 * time.Millisecond) // well under the tick; no output expected
	stop()
	if s := sb.String(); s != "" {
		t.Fatalf("progress emitted before its interval: %q", s)
	}
}
