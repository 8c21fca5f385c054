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

// DefaultWarmBudget bounds the total bytes the Runner's memo may hold:
// outcome masks plus the component passes they are composed from. A mask
// is one byte per timed instruction and a full training sweep touches at
// most il1×dl1×l2 = 125 geometry keys per benchmark, so the paper's
// workloads need 9 benchmarks × 125 keys × 70 KB ≈ 79 MB of masks at
// 100k-instruction traces. The components add about 2.1 MB: per trace,
// the 70 KB of base class bytes, five IL1 passes of 21 KB and five DL1
// passes of 12.5 KB (bitsets over the instructions each cache walks).
// Anything past the budget is computed into scratch on every run
// instead; results are the same either way.
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

// il1Key and dl1Key identify the L1 component passes a warmKey's mask is
// composed from: each L1 sees the trace alone, so its misses depend only
// on the trace and its own geometry (the IL1's associativity is a
// package constant).
type il1Key struct {
	tr *trace.Trace
	kb int
}

type dl1Key struct {
	tr    *trace.Trace
	kb    int
	assoc int
}

// warmEntry is one key's memo slot: the once composes the key's outcome
// mask (one class byte per timed instruction, see kernel.go) and
// activity exactly once however many goroutines race on the key. mask
// stays nil when the memo budget is exhausted or the computation failed,
// in which case every run of the key composes its own.
type warmEntry struct {
	once sync.Once
	mask []byte
	act  Activity
}

// passEntry is one component pass's memo slot, filled at most once like
// warmEntry; val stays nil when the budget could not hold the pass or
// the pass failed.
type passEntry[T any] struct {
	once sync.Once
	val  *T
}

// memo is a copy-on-write map from key to a stable slot. The hot path is
// one atomic load and a map read; inserts copy the map under the mutex,
// which is rare (once per distinct key) and cheap next to the pass that
// fills the slot. The zero value is an empty memo.
type memo[K comparable, V any] struct {
	m  atomic.Pointer[map[K]*V]
	mu sync.Mutex
}

// get returns the slot for a key, creating it if needed.
func (m *memo[K, V]) get(key K) *V {
	if cur := m.m.Load(); cur != nil {
		if v, ok := (*cur)[key]; ok {
			return v
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var cur map[K]*V
	if p := m.m.Load(); p != nil {
		cur = *p
		if v, ok := cur[key]; ok {
			return v
		}
	}
	next := make(map[K]*V, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	v := new(V)
	next[key] = v
	m.m.Store(&next)
	return v
}

// Runner is the simulator's production path: a pool of run scratch plus
// a memo of outcome masks keyed by (trace, cache geometry). The first
// run of each key composes the key's mask from component passes — the
// trace's branch pass, its IL1 pass and its DL1 pass, each memoized on
// its own and walked once however many keys share it — and one L2 pass
// over their misses. Every run, the first included, then replays the
// mask through the timed kernel without touching the hierarchy. Results
// are bit-identical to Run's. Safe for concurrent use.
type Runner struct {
	pool     sync.Pool
	masks    memo[warmKey, warmEntry]
	branches memo[*trace.Trace, passEntry[branchPass]]
	il1s     memo[il1Key, passEntry[missPass]]
	dl1s     memo[dl1Key, passEntry[missPass]]
	// budget caps the memo's total bytes, masks and component passes
	// alike; anything past it is not memoized and nothing is evicted.
	// Results are unaffected either way.
	budget int64
	used   atomic.Int64
	hits   atomic.Int64
	misses atomic.Int64
	walks  atomic.Int64
}

// NewRunner returns a runner with the default memo budget.
func NewRunner() *Runner {
	r := &Runner{budget: DefaultWarmBudget}
	r.pool.New = func() any { return new(Scratch) }
	return r
}

// WarmStats returns how many runs replayed a memoized outcome mask
// (hits) versus composed their key's mask (misses: every first run of a
// key, and every run of a key the memo budget could not hold).
func (r *Runner) WarmStats() (hits, misses int64) {
	return r.hits.Load(), r.misses.Load()
}

// OutcomeWalks returns how many component passes walked a trace: one per
// trace, one per distinct IL1 size and one per distinct DL1 geometry when
// the budget holds them all, plus one per pass recomputed for a run the
// budget could not hold.
func (r *Runner) OutcomeWalks() int64 { return r.walks.Load() }

// reserve charges size bytes against the budget, reporting whether they
// fit; a charge that does not fit is not kept.
func (r *Runner) reserve(size int64) bool {
	if r.used.Add(size) > r.budget {
		r.used.Add(-size)
		return false
	}
	return true
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

// runFast replays the key's outcome mask, composing it first if this is
// the key's first run. A key the memo budget cannot hold has its mask
// composed into the scratch on every run, and replayed the same way.
func (r *Runner) runFast(out *Result, s *Scratch, p Params, tr *trace.Trace) error {
	e := r.masks.get(warmKey{
		tr:       tr,
		il1KB:    p.Config.IL1KB,
		dl1KB:    p.Config.DL1KB,
		dl1Assoc: p.DL1Assoc,
		l2KB:     p.Config.L2KB,
	})
	var (
		mask     []byte
		act      Activity
		err      error
		composed bool
	)
	e.once.Do(func() {
		composed = true
		var kept bool
		if mask, act, kept, err = r.outcomes(s, p, tr, true); kept {
			e.mask, e.act = mask, act
		}
	})
	switch {
	case err != nil:
		return err
	case !composed && e.mask != nil:
		mask, act = e.mask, e.act
		r.hits.Add(1)
		simWarmHits.Add(1)
	default:
		if !composed {
			if mask, act, _, err = r.outcomes(s, p, tr, false); err != nil {
				return err
			}
		}
		r.misses.Add(1)
		simWarmMisses.Add(1)
	}
	s.timedReplay(out, p, tr, mask, act)
	return nil
}

// outcomes composes a warm key's outcome mask and activity from its
// component passes (see compose). With memoize set, the mask is a fresh
// allocation charged to the budget when the budget holds it, and kept
// reports so; otherwise it is the scratch's mask buffer, valid until the
// scratch's next run.
func (r *Runner) outcomes(s *Scratch, p Params, tr *trace.Trace, memoize bool) (mask []byte, act Activity, kept bool, err error) {
	n := tr.Len()
	warm := warmupLen(n)
	size := n - warm
	br, err := pass(r, &r.branches, tr, &s.branch, int64(size),
		func(v *branchPass) error { return s.branchWalk(tr, v) })
	if err != nil {
		return nil, Activity{}, false, err
	}
	il1, err := pass(r, &r.il1s, il1Key{tr, p.Config.IL1KB}, &s.il1Pass, missPassBytes(n, size),
		func(v *missPass) error { return s.il1Walk(tr, p.Config.IL1KB, v) })
	if err != nil {
		return nil, Activity{}, false, err
	}
	dl1, err := pass(r, &r.dl1s, dl1Key{tr, p.Config.DL1KB, p.DL1Assoc}, &s.dl1Pass, missPassBytes(warm, size),
		func(v *missPass) error { return s.dl1Walk(tr, p.Config.DL1KB, p.DL1Assoc, v) })
	if err != nil {
		return nil, Activity{}, false, err
	}
	kept = memoize && r.reserve(int64(size))
	if kept {
		mask = make([]byte, size)
	} else {
		if cap(s.mask) < size {
			s.mask = make([]byte, size)
		}
		mask = s.mask[:size]
	}
	if act, err = s.compose(p, tr, br, il1, dl1, mask); err != nil {
		if kept {
			r.used.Add(-int64(size))
		}
		return nil, Activity{}, false, err
	}
	return mask, act, kept, nil
}

// pass returns the memoized component pass for key, running walk on the
// key's first use; a pass the budget cannot hold, size bytes, is walked
// into the scratch value instead, on every call. Every walk is counted.
func pass[K comparable, T any](r *Runner, m *memo[K, passEntry[T]], key K, scratch *T, size int64, walk func(*T) error) (*T, error) {
	e := m.get(key)
	var err error
	e.once.Do(func() {
		if !r.reserve(size) {
			return
		}
		r.walks.Add(1)
		v := new(T)
		if err = walk(v); err != nil {
			r.used.Add(-size)
			return
		}
		e.val = v
	})
	if err != nil {
		return nil, err
	}
	if e.val != nil {
		return e.val, nil
	}
	r.walks.Add(1)
	return scratch, walk(scratch)
}
