package obs

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// NumBuckets is the fixed bucket count of every latency histogram.
// Buckets are log-spaced with ratio 2 starting at 1µs: bucket 0 holds
// durations under 1µs, bucket i holds [1µs·2^(i-1), 1µs·2^i), and the
// last bucket is unbounded above (≈ 18 minutes and beyond) — wide enough
// to span a compiled sweep tile (tens of µs), a detailed simulation
// (ms–s) and a full training phase in one fixed layout, so snapshots
// from different runs compare bucket-for-bucket.
const NumBuckets = 32

// histBase is the upper bound of bucket 0.
const histBase = time.Microsecond

// bucketIndex maps a duration to its histogram bucket.
func bucketIndex(d time.Duration) int {
	if d < histBase {
		return 0
	}
	// bits.Len64 of the duration in whole µs: 1µs → bucket 1, 2-3µs →
	// bucket 2, doubling per bucket.
	i := bits.Len64(uint64(d / histBase))
	if i >= NumBuckets {
		return NumBuckets - 1
	}
	return i
}

// BucketUpperBounds returns the inclusive-exclusive upper bound of each
// bucket; the final entry is -1, meaning unbounded.
func BucketUpperBounds() []time.Duration {
	out := make([]time.Duration, NumBuckets)
	for i := 0; i < NumBuckets-1; i++ {
		out[i] = histBase << uint(i)
	}
	out[NumBuckets-1] = -1
	return out
}

// Counter is a named monotonic counter. Safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Histogram is a fixed-bucket log-spaced latency histogram. Observe is
// a pair of atomic adds plus a bucket increment — safe and cheap under
// heavy concurrency.
type Histogram struct {
	name    string
	count   atomic.Int64
	sumNS   atomic.Int64
	buckets [NumBuckets]atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.count.Add(1)
	h.sumNS.Add(d.Nanoseconds())
	h.buckets[bucketIndex(d)].Add(1)
}

// BucketCount is one non-empty histogram bucket in a snapshot. UpperNS
// is the bucket's exclusive upper bound in nanoseconds; -1 means
// unbounded (the final bucket).
type BucketCount struct {
	UpperNS int64 `json:"le_ns"`
	Count   int64 `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of a histogram, carrying
// only its non-empty buckets.
type HistogramSnapshot struct {
	Name    string        `json:"name"`
	Count   int64         `json:"count"`
	SumNS   int64         `json:"sum_ns"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Name:  h.name,
		Count: h.count.Load(),
		SumNS: h.sumNS.Load(),
	}
	bounds := BucketUpperBounds()
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, BucketCount{
				UpperNS: bounds[i].Nanoseconds(),
				Count:   n,
			})
		}
	}
	return s
}

// Registry is a name-indexed set of counters and histograms.
// Counter/Histogram get-or-create; instruments are never removed, so
// callers cache the returned pointers and skip the map on hot paths.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{name: name}
		r.hists[name] = h
	}
	return h
}

// CounterValues snapshots every non-zero counter as a name → value map.
func (r *Registry) CounterValues() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters))
	for name, c := range r.counters {
		if v := c.Load(); v != 0 {
			out[name] = v
		}
	}
	return out
}

// HistogramSnapshots snapshots every histogram with observations, sorted
// by name for stable manifest output.
func (r *Registry) HistogramSnapshots() []HistogramSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]HistogramSnapshot, 0, len(r.hists))
	for _, h := range r.hists {
		if s := h.Snapshot(); s.Count > 0 {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}
