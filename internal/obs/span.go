package obs

import (
	"context"
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/atomicio"
)

// Attr is one span attribute. Values are pre-rendered to strings so
// records are flat and JSON encoding never reflects over interface
// values; the constructors below cover the common types.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// String builds a string attribute.
func String(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int builds an integer attribute.
func Int(key string, value int64) Attr {
	return Attr{Key: key, Value: strconv.FormatInt(value, 10)}
}

// SpanRecord is one completed span as stored in the ring and serialized
// to the trace log. Times are nanoseconds relative to the tracer's
// epoch, so records from one process compare directly.
type SpanRecord struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
	Attrs   []Attr `json:"attrs,omitempty"`
}

// Tracer records completed spans into a fixed-size lock-free ring: each
// End claims the next slot with an atomic increment and publishes the
// record through an atomic pointer, so writers never block each other or
// readers, and the ring overwrites oldest-first once full. Total counts
// every record ever published (overwritten or not).
type Tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	next  atomic.Uint64
	total atomic.Int64
	mask  uint64
	slots []atomic.Pointer[SpanRecord]
}

// NewTracer creates a tracer whose ring holds capacity spans (rounded up
// to a power of two, minimum 16).
func NewTracer(capacity int) *Tracer {
	size := 16
	for size < capacity {
		size <<= 1
	}
	return &Tracer{
		epoch: time.Now(),
		mask:  uint64(size - 1),
		slots: make([]atomic.Pointer[SpanRecord], size),
	}
}

// Capacity returns the ring size.
func (t *Tracer) Capacity() int { return len(t.slots) }

// Total returns how many spans have been recorded over the tracer's
// lifetime, including spans the ring has since overwritten.
func (t *Tracer) Total() int64 { return t.total.Load() }

// Span is one in-flight operation. A nil Span is a valid no-op (the
// disabled-tracing fast path), so call sites never branch on enablement
// themselves. Spans are owned by the goroutine that started them; End
// must be called exactly once.
type Span struct {
	t      *Tracer
	id     uint64
	parent uint64
	name   string
	start  time.Time
	attrs  []Attr
}

// ctxKey carries the current span ID through a context.
type ctxKey struct{}

// Start begins a span parented to the span already in ctx (if any) and
// returns a derived context carrying the new span, for further nesting.
// When tracing is disabled it returns ctx unchanged and a nil span.
func Start(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	if !Enabled() {
		return ctx, nil
	}
	parent, _ := ctx.Value(ctxKey{}).(uint64)
	s := DefaultTracer.start(parent, name, attrs)
	return context.WithValue(ctx, ctxKey{}, s.id), s
}

// Begin starts a root span with no context plumbing — for call sites
// (model fitting, compilation) that are not on a context-carrying path.
// Returns nil when tracing is disabled.
func Begin(name string, attrs ...Attr) *Span {
	if !Enabled() {
		return nil
	}
	return DefaultTracer.start(0, name, attrs)
}

// Child starts a span parented to s, for hierarchies built outside a
// context chain. A nil receiver yields a root span (or nil if tracing is
// off).
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if s == nil {
		return Begin(name, attrs...)
	}
	return s.t.start(s.id, name, attrs)
}

func (t *Tracer) start(parent uint64, name string, attrs []Attr) *Span {
	return &Span{
		t:      t,
		id:     t.ids.Add(1),
		parent: parent,
		name:   name,
		start:  time.Now(),
		attrs:  attrs,
	}
}

// End completes the span and publishes its record to the tracer's ring.
// Safe on a nil span.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.end(time.Since(s.start))
}

// EndObserve completes the span and records its duration into h off a
// single clock read — for hot loops (sweep tiles) that would otherwise
// pay one time.Now for the span and another for the histogram. Safe on
// a nil span, in which case nothing is observed either.
func (s *Span) EndObserve(h *Histogram) {
	if s == nil {
		return
	}
	d := time.Since(s.start)
	s.end(d)
	h.Observe(d)
}

func (s *Span) end(d time.Duration) {
	t := s.t
	rec := &SpanRecord{
		ID:      s.id,
		Parent:  s.parent,
		Name:    s.name,
		StartNS: s.start.Sub(t.epoch).Nanoseconds(),
		DurNS:   d.Nanoseconds(),
		Attrs:   s.attrs,
	}
	slot := t.next.Add(1) - 1
	t.slots[slot&t.mask].Store(rec)
	t.total.Add(1)
}

// Snapshot returns the spans currently held by the ring, ordered by
// start time (ties by ID). It is safe to call concurrently with writers;
// records are immutable once published.
func (t *Tracer) Snapshot() []SpanRecord {
	out := make([]SpanRecord, 0, len(t.slots))
	for i := range t.slots {
		if rec := t.slots[i].Load(); rec != nil {
			out = append(out, *rec)
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].StartNS != out[b].StartNS {
			return out[a].StartNS < out[b].StartNS
		}
		return out[a].ID < out[b].ID
	})
	return out
}

// WriteSpans serializes span records as JSON lines, one record per line.
func WriteSpans(w io.Writer, spans []SpanRecord) error {
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	return nil
}

// WriteSpansFile writes the span log to path atomically (temp file +
// fsync + rename).
func WriteSpansFile(path string, spans []SpanRecord) error {
	return atomicio.WriteTo(path, 0o644, func(w io.Writer) error {
		return WriteSpans(w, spans)
	})
}
