// Package fault is a seeded, deterministic fault-injection framework for
// resilience testing. Code under test declares named injection sites
// (fault.Here, fault.HereCtx, fault.Flip); a Plan arms those sites with
// rules that fire panics, errors, delays, hangs, or floating-point bit
// flips on deterministically chosen visits. Nothing retries an injected
// error or panic: it fails the operation it hit, and a checkpointed run
// recovers by resuming. Injection is off by default and
// costs one atomic pointer load per site when disabled, so sites are
// safe to leave in production hot paths.
//
// Determinism: whether a rule fires on its k-th visit is a pure function
// of (plan seed, site name, rule index, k), so a single-threaded caller
// replays the exact same fault sequence on every run. Concurrent callers
// race only for visit numbers; the set of fired visits is still
// deterministic even though their assignment to goroutines is not.
//
// Plans can be armed programmatically (Enable) or from the environment:
// if REPRO_FAULT_PLAN is set when the process starts, it is parsed with
// Parse and enabled, which is how the CI fault matrix runs the ordinary
// test suites under injected delays and the checkpoint drills kill a
// run at an exact visit.
package fault

import (
	"context"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Kind is the failure mode a rule injects.
type Kind uint8

const (
	// KindError injects an *Injected error. It fails the operation at
	// the site; a count-bounded rule is how tests kill a run at an exact
	// visit.
	KindError Kind = iota
	// KindPanic panics with a *PanicValue.
	KindPanic
	// KindDelay sleeps for the rule's Delay.
	KindDelay
	// KindFlip flips one mantissa bit of the value passed to Flip,
	// modeling silent data corruption on a fast path.
	KindFlip
	// KindHang blocks until the site's context is cancelled, modeling
	// liveness faults (NFS stalls, livelocks) that never surface as an
	// exit. At a context-free site (Here) a hang blocks forever — the
	// victim can only be unstuck by whatever supervises its process.
	KindHang
)

// String names the kind as Parse spells it.
func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindPanic:
		return "panic"
	case KindDelay:
		return "delay"
	case KindFlip:
		return "flip"
	case KindHang:
		return "hang"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Rule arms one site with one failure mode. A rule fires on a visit when
// the visit is past After, the rule has fired fewer than Count times
// (0 = unlimited), and the trigger matches: every Every-th visit when
// Every > 0, otherwise an independent deterministic draw with
// probability Prob.
type Rule struct {
	Site  string
	Kind  Kind
	Prob  float64       // per-visit firing probability (used when Every == 0)
	Every int64         // fire on visits where visit % Every == 0 (1-indexed)
	After int64         // ignore the first After visits
	Count int64         // maximum total firings; 0 means unlimited
	Delay time.Duration // sleep duration for KindDelay
}

// Plan is a seeded set of rules. The zero Seed is valid (and
// deterministic like any other).
type Plan struct {
	Seed  uint64
	Rules []Rule
}

// armed is one rule's runtime state.
type armed struct {
	Rule
	idx    uint64 // rule index, mixed into the trigger hash
	visits atomic.Int64
	fired  atomic.Int64
}

type state struct {
	plan  *Plan
	seed  uint64
	sites map[string][]*armed
}

var active atomic.Pointer[state]

// injections counts every fired rule, by any kind, process-wide; it
// flows into run manifests like every obs counter.
var injections = obs.DefaultRegistry.Counter("fault.injections")

// Enable arms the plan process-wide, replacing any previous plan. Pass
// nil to disable (equivalent to Disable). Rule state (visit and fire
// counters) starts fresh on every Enable.
func Enable(p *Plan) {
	if p == nil {
		active.Store(nil)
		return
	}
	st := &state{plan: p, seed: p.Seed, sites: make(map[string][]*armed)}
	for i, r := range p.Rules {
		st.sites[r.Site] = append(st.sites[r.Site], &armed{Rule: r, idx: uint64(i)})
	}
	active.Store(st)
}

// Disable disarms fault injection process-wide.
func Disable() { active.Store(nil) }

// Active reports whether a plan is armed. Tests whose assertions only
// hold in a fault-free world (exact backend call counts, for example)
// skip themselves when a plan is active.
func Active() bool { return active.Load() != nil }

// Current returns the armed plan, or nil when injection is disabled.
// Tests that arm their own plan save Current and re-Enable it on
// cleanup, so a process-wide plan (the CI fault matrix) survives them —
// though its rule counters restart, as Enable documents.
func Current() *Plan {
	if st := active.Load(); st != nil {
		return st.plan
	}
	return nil
}

// Injected is the error value KindError rules produce.
type Injected struct {
	Site  string
	Visit int64
}

// Error implements error.
func (e *Injected) Error() string {
	return fmt.Sprintf("fault: injected error at %s (visit %d)", e.Site, e.Visit)
}

// PanicValue is the value KindPanic rules panic with, so recovery sites
// can distinguish injected panics in tests.
type PanicValue struct {
	Site  string
	Visit int64
}

func (p *PanicValue) String() string {
	return fmt.Sprintf("fault: injected panic at %s (visit %d)", p.Site, p.Visit)
}

// fnv1a hashes a site name for the trigger draw.
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// splitmix64 is the finalizer that turns (seed, site, rule, visit) into
// an independent uniform draw.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fires decides whether rule a fires on visit v (1-indexed) under seed.
func (a *armed) fires(seed uint64, v int64) bool {
	if v <= a.After {
		return false
	}
	if a.Every > 0 {
		if (v-a.After)%a.Every != 0 {
			return false
		}
	} else {
		draw := splitmix64(seed ^ fnv1a(a.Site) ^ (a.idx * 0x9e3779b97f4a7c15) ^ uint64(v))
		if float64(draw>>11)/float64(1<<53) >= a.Prob {
			return false
		}
	}
	if a.Count > 0 && a.fired.Add(1) > a.Count {
		return false
	}
	injections.Add(1)
	return true
}

// Here evaluates the site's error, panic, delay and hang rules for this
// visit. It returns an injected error, panics with a *PanicValue,
// sleeps, blocks, or — almost always — returns nil. When no plan is
// armed the cost is a single atomic load. Flip rules are not
// evaluated by Here; they live on the value path (Flip). Sites that hold
// a context should call HereCtx instead, so delay and hang rules respect
// cancellation.
func Here(site string) error { return HereCtx(context.Background(), site) }

// HereCtx is Here for sites with a context in hand: a delay rule sleeps
// only until ctx is cancelled (returning ctx.Err() when interrupted,
// so shutdown and drain are not held up by a sleeping fault), and a
// hang rule blocks until cancellation and then returns ctx.Err(). Under
// the background context (Here) a hang blocks forever by design.
func HereCtx(ctx context.Context, site string) error {
	st := active.Load()
	if st == nil {
		return nil
	}
	rules := st.sites[site]
	if len(rules) == 0 {
		return nil
	}
	for _, a := range rules {
		if a.Kind == KindFlip {
			continue
		}
		v := a.visits.Add(1)
		if !a.fires(st.seed, v) {
			continue
		}
		switch a.Kind {
		case KindPanic:
			panic(&PanicValue{Site: site, Visit: v})
		case KindDelay:
			if err := sleepCtx(ctx, a.Delay); err != nil {
				return err
			}
		case KindHang:
			<-ctx.Done()
			return ctx.Err()
		default:
			return &Injected{Site: site, Visit: v}
		}
	}
	return nil
}

// sleepCtx sleeps for d or until ctx is cancelled, whichever comes
// first, returning ctx.Err() when interrupted.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if ctx.Done() == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Flip passes v through the site's flip rules: when one fires, a middle
// mantissa bit of the float is inverted — a silent, bit-exact-detectable
// corruption of roughly relative magnitude 2^-32. With no plan armed the
// cost is a single atomic load.
func Flip(site string, v float64) float64 {
	st := active.Load()
	if st == nil {
		return v
	}
	for _, a := range st.sites[site] {
		if a.Kind != KindFlip {
			continue
		}
		n := a.visits.Add(1)
		if a.fires(st.seed, n) {
			v = math.Float64frombits(math.Float64bits(v) ^ (1 << 20))
		}
	}
	return v
}

// Parse builds a plan from a compact spec, the REPRO_FAULT_PLAN syntax:
//
//	seed=2007;eval.invoke:error:p=0.02;eval.invoke:delay:p=0.01,delay=200us
//
// Clauses are separated by ';'. An optional leading seed=N clause sets
// the plan seed. Every other clause is site:kind[:opts] where kind is
// error, panic, delay, hang or flip and opts is a comma-separated
// list of p=<prob>, every=<n>, after=<n>, count=<n>, delay=<duration>.
func Parse(spec string) (*Plan, error) {
	p := &Plan{}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		if v, ok := strings.CutPrefix(clause, "seed="); ok {
			seed, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: bad seed %q: %w", v, err)
			}
			p.Seed = seed
			continue
		}
		parts := strings.SplitN(clause, ":", 3)
		if len(parts) < 2 {
			return nil, fmt.Errorf("fault: clause %q is not site:kind[:opts]", clause)
		}
		r := Rule{Site: parts[0]}
		switch parts[1] {
		case "error":
			r.Kind = KindError
		case "panic":
			r.Kind = KindPanic
		case "delay":
			r.Kind = KindDelay
		case "flip":
			r.Kind = KindFlip
		case "hang":
			r.Kind = KindHang
		default:
			return nil, fmt.Errorf("fault: unknown kind %q in clause %q", parts[1], clause)
		}
		if len(parts) == 3 {
			for _, opt := range strings.Split(parts[2], ",") {
				key, val, ok := strings.Cut(strings.TrimSpace(opt), "=")
				if !ok {
					return nil, fmt.Errorf("fault: option %q in clause %q is not key=value", opt, clause)
				}
				var err error
				switch key {
				case "p":
					r.Prob, err = strconv.ParseFloat(val, 64)
				case "every":
					r.Every, err = strconv.ParseInt(val, 10, 64)
				case "after":
					r.After, err = strconv.ParseInt(val, 10, 64)
				case "count":
					r.Count, err = strconv.ParseInt(val, 10, 64)
				case "delay":
					r.Delay, err = time.ParseDuration(val)
				default:
					return nil, fmt.Errorf("fault: unknown option %q in clause %q", key, clause)
				}
				if err != nil {
					return nil, fmt.Errorf("fault: option %q in clause %q: %w", opt, clause, err)
				}
			}
		}
		if r.Prob == 0 && r.Every == 0 {
			return nil, fmt.Errorf("fault: clause %q has no trigger (set p= or every=)", clause)
		}
		p.Rules = append(p.Rules, r)
	}
	return p, nil
}

// EnvVar is the environment variable the process-start hookup reads.
const EnvVar = "REPRO_FAULT_PLAN"

func init() {
	if spec := os.Getenv(EnvVar); spec != "" {
		p, err := Parse(spec)
		if err != nil {
			// A malformed plan in CI must fail the job loudly, not
			// silently run a fault-free suite that proves nothing.
			panic(err)
		}
		Enable(p)
	}
}
