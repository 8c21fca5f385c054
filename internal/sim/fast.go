package sim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/trace"
)

// DefaultWarmBudget bounds the total bytes of outcome masks the memo may
// hold. A mask is one byte per timed instruction and a full training
// sweep touches at most il1×dl1×l2 = 125 geometry keys per benchmark, so
// the paper's workloads need 9 benchmarks × 125 keys × 70 KB ≈ 79 MB at
// 100k-instruction traces; runs past the budget compute their own mask
// into scratch instead.
const DefaultWarmBudget int64 = 256 << 20

// warmKey identifies one memoizable outcome mask. The caches and the
// predictor are driven by the trace alone, so their outcomes depend on
// nothing but the trace and the cache geometries — never on latencies,
// width, depth, pools or queues (the BHT geometry is a package constant). Keys hold
// the trace pointer: traces are immutable and memoized per (benchmark,
// length), so pointer identity is exactly trace identity.
type warmKey struct {
	tr       *trace.Trace
	il1KB    int
	dl1KB    int
	dl1Assoc int
	l2KB     int
}

// warmEntry is one key's memo slot: the once computes the key's outcome
// mask (one byte per timed instruction, see the m* bits in kernel.go)
// and activity exactly once however many goroutines race on the key.
// mask stays nil when the memo budget is exhausted or the computation
// failed, in which case every run of the key computes its own.
type warmEntry struct {
	once sync.Once
	mask []byte
	act  Activity
}

type warmMap map[warmKey]*warmEntry

// Runner is the simulator's production path: a pool of run scratch plus
// a memo of outcome masks keyed by (trace, cache geometry). The first
// run of each key walks the warmup and then the timed region through the
// caches and the branch predictor, with no timing, to compute the key's
// mask; every run, the first included, then replays the mask through the
// timed kernel without touching the hierarchy. Results are bit-identical
// to Run's. Safe for concurrent use.
type Runner struct {
	pool sync.Pool
	warm atomic.Pointer[warmMap]
	mu   sync.Mutex // serializes copy-on-write inserts into warm
	// budget caps the memo's total mask bytes; keys past it are not
	// memoized and nothing is evicted. Results are unaffected either way.
	budget int64
	used   atomic.Int64
	hits   atomic.Int64
	misses atomic.Int64
}

// NewRunner returns a runner with the default memo budget.
func NewRunner() *Runner {
	r := &Runner{budget: DefaultWarmBudget}
	r.pool.New = func() any { return new(Scratch) }
	m := make(warmMap)
	r.warm.Store(&m)
	return r
}

// WarmStats returns how many runs replayed a memoized outcome mask
// (hits) versus computed their key's mask (misses: every first run of a
// key, and every run of a key the memo budget could not hold).
func (r *Runner) WarmStats() (hits, misses int64) {
	return r.hits.Load(), r.misses.Load()
}

// entry returns the memo slot for a key, creating it if needed. The hot
// path is one atomic load and a map read; inserts copy the map under the
// mutex, which is rare (once per distinct geometry per trace) and cheap
// next to the outcome pass that follows.
func (r *Runner) entry(key warmKey) *warmEntry {
	if e, ok := (*r.warm.Load())[key]; ok {
		return e
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m := *r.warm.Load()
	if e, ok := m[key]; ok {
		return e
	}
	next := make(warmMap, len(m)+1)
	for k, v := range m {
		next[k] = v
	}
	e := &warmEntry{}
	next[key] = e
	r.warm.Store(&next)
	return e
}

// Run simulates through the Runner and returns a fresh Result.
func (r *Runner) Run(cfg arch.Config, tr *trace.Trace) (*Result, error) {
	res := new(Result)
	if err := r.RunInto(res, cfg, tr); err != nil {
		return nil, err
	}
	return res, nil
}

// RunInto simulates through the Runner into caller-owned storage. Once
// its key's mask is memoized it performs zero steady-state heap
// allocations; output is bit-identical to Run's full-warmup path.
func (r *Runner) RunInto(out *Result, cfg arch.Config, tr *trace.Trace) error {
	p, err := Derive(cfg)
	if err != nil {
		return err
	}
	if tr == nil || tr.Len() == 0 {
		return fmt.Errorf("sim: empty trace")
	}
	// Resilience-test injection point: delays model slow runs against a
	// batch deadline, errors and panics exercise the engine's recovery.
	if err := fault.Here("sim.run"); err != nil {
		return err
	}
	traced := obs.Enabled()
	var start time.Time
	if traced {
		start = time.Now()
	}
	s := r.pool.Get().(*Scratch)
	err = r.runFast(out, s, p, tr)
	r.pool.Put(s)
	if err != nil {
		return err
	}
	observeRun(out, traced, start)
	return nil
}

// runFast replays the key's outcome mask, computing it first if this is
// the key's first run. A key the memo budget cannot hold has its mask
// computed into the scratch, and its activity counted, on every run, and
// replayed the same way.
func (r *Runner) runFast(out *Result, s *Scratch, p Params, tr *trace.Trace) error {
	e := r.entry(warmKey{
		tr:       tr,
		il1KB:    p.Config.IL1KB,
		dl1KB:    p.Config.DL1KB,
		dl1Assoc: p.DL1Assoc,
		l2KB:     p.Config.L2KB,
	})
	size := tr.Len() - warmupLen(tr.Len())
	computed := false
	var onceErr error
	e.once.Do(func() {
		if r.used.Add(int64(size)) > r.budget {
			r.used.Add(-int64(size))
			return
		}
		m := make([]byte, size)
		if e.act, onceErr = s.outcomes(p, tr, m); onceErr != nil {
			r.used.Add(-int64(size))
			return
		}
		e.mask = m
		computed = true
	})
	if onceErr != nil {
		return onceErr
	}
	mask, act := e.mask, e.act
	switch {
	case computed:
		r.misses.Add(1)
		simWarmMisses.Add(1)
	case mask != nil:
		r.hits.Add(1)
		simWarmHits.Add(1)
	default:
		if cap(s.mask) < size {
			s.mask = make([]byte, size)
		}
		mask = s.mask[:size]
		var err error
		if act, err = s.outcomes(p, tr, mask); err != nil {
			return err
		}
		r.misses.Add(1)
		simWarmMisses.Add(1)
	}
	s.timedReplay(out, p, tr, mask, act)
	return nil
}
