package obs

import (
	"sync"
	"testing"
	"time"
)

// TestBucketBoundaries pins the log-spaced bucket layout: bucket 0 holds
// sub-µs durations, each subsequent bucket doubles, boundaries land in
// the upper bucket (bounds are exclusive upper).
func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{-time.Second, 0}, // Observe clamps; bucketIndex treats <1µs as 0
		{999 * time.Nanosecond, 0},
		{time.Microsecond, 1}, // boundary: exactly 1µs leaves bucket 0
		{1999 * time.Nanosecond, 1},
		{2 * time.Microsecond, 2}, // boundary: 2µs doubles up
		{3 * time.Microsecond, 2},
		{4 * time.Microsecond, 3},
		{time.Millisecond, 10}, // 1000µs: 2^9 ≤ 1000 < 2^10
		{time.Second, 20},      // 10^6µs: 2^19 ≤ 10^6 < 2^20
		{18 * time.Minute, 31}, // ≥ 1µs·2^30: clamped to the open-ended bucket
		{24 * time.Hour, 31},
	}
	for _, c := range cases {
		d := c.d
		if d < 0 {
			d = 0
		}
		if got := bucketIndex(d); got != c.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestBucketUpperBoundsShape(t *testing.T) {
	bounds := BucketUpperBounds()
	if len(bounds) != NumBuckets {
		t.Fatalf("len(bounds) = %d, want %d", len(bounds), NumBuckets)
	}
	if bounds[0] != time.Microsecond {
		t.Fatalf("bounds[0] = %v, want 1µs", bounds[0])
	}
	for i := 1; i < NumBuckets-1; i++ {
		if bounds[i] != 2*bounds[i-1] {
			t.Fatalf("bounds[%d] = %v, want double of %v (log-spaced ratio 2)", i, bounds[i], bounds[i-1])
		}
	}
	if bounds[NumBuckets-1] != -1 {
		t.Fatalf("final bound = %v, want -1 (unbounded)", bounds[NumBuckets-1])
	}
}

func TestHistogramObserveAndSnapshot(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	if r.Histogram("lat") != h {
		t.Fatal("Histogram is not get-or-create")
	}
	h.Observe(500 * time.Nanosecond) // bucket 0
	h.Observe(time.Microsecond)      // bucket 1
	h.Observe(time.Microsecond)      // bucket 1
	h.Observe(3 * time.Millisecond)  // 3ms/1µs ≈ 3072 → bucket 12
	h.Observe(-time.Second)          // clamped to 0 → bucket 0

	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	wantSum := int64(500 + 1000 + 1000 + 3000000)
	if s.SumNS != wantSum {
		t.Fatalf("sum = %d, want %d", s.SumNS, wantSum)
	}
	if len(s.Buckets) != 3 {
		t.Fatalf("got %d non-empty buckets, want 3: %+v", len(s.Buckets), s.Buckets)
	}
	if s.Buckets[0].UpperNS != 1000 || s.Buckets[0].Count != 2 {
		t.Fatalf("bucket 0 = %+v", s.Buckets[0])
	}
	if s.Buckets[1].UpperNS != 2000 || s.Buckets[1].Count != 2 {
		t.Fatalf("bucket 1 = %+v", s.Buckets[1])
	}
}

func TestCountersConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	const goroutines, each = 8, 1000
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			c := r.Counter("n")
			h := r.Histogram("h")
			for i := 0; i < each; i++ {
				c.Add(1)
				h.Observe(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("n").Load(); got != goroutines*each {
		t.Fatalf("counter = %d, want %d", got, goroutines*each)
	}
	if got := r.Histogram("h").Snapshot().Count; got != goroutines*each {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*each)
	}
	vals := r.CounterValues()
	if vals["n"] != goroutines*each {
		t.Fatalf("CounterValues = %v", vals)
	}
	snaps := r.HistogramSnapshots()
	if len(snaps) != 1 || snaps[0].Name != "h" {
		t.Fatalf("HistogramSnapshots = %+v", snaps)
	}
}
