package shard

import (
	"context"
	"errors"
	"fmt"
	"os/exec"
	"sync"
	"time"

	"repro/internal/obs"
)

// Coordinator observability instruments; they flow into run manifests
// like every obs counter.
var (
	workersLaunchedCtr = obs.DefaultRegistry.Counter("shard.workers_launched")
	workerRestartsCtr  = obs.DefaultRegistry.Counter("shard.worker_restarts")
	workerFailuresCtr  = obs.DefaultRegistry.Counter("shard.worker_failures")
	workersStalledCtr  = obs.DefaultRegistry.Counter("shard.workers_stalled")
)

// DefaultRetries is how many times a coordinator restarts a failed
// worker before giving up on its shard. Because workers checkpoint and
// restart with resume enabled, each attempt begins where the previous
// one died rather than redoing the shard.
const DefaultRetries = 2

// DefaultStallRestarts bounds restarts of stalled workers, separately
// from crash Retries and more generously: a stall-kill resumes from the
// worker's checkpoint, so even a fault that re-hangs every attempt
// makes forward progress chunk by chunk, and a small crash budget would
// declare such a shard dead when it is actually converging. The bound
// exists for workers that hang before their first beacon, which would
// otherwise loop forever.
const DefaultStallRestarts = 8

// ErrStalled marks a worker killed by the liveness monitor: its process
// was alive but its beacon showed no progress for the stall timeout.
var ErrStalled = errors.New("worker stalled")

// EventKind classifies a coordinator Event.
type EventKind int

// Coordinator event kinds.
const (
	EventStart   EventKind = iota // a worker attempt launched
	EventExit                     // a worker attempt exited cleanly
	EventRestart                  // a worker attempt failed; relaunching
	EventFail                     // a shard exhausted its retries
	EventStalled                  // the monitor killed a worker for lack of beacon progress
)

// Event is one coordinator lifecycle notification, delivered to the
// OnEvent hook as it happens — the per-shard progress stream.
type Event struct {
	Kind    EventKind
	Shard   int           // shard index
	Attempt int           // 1-based attempt number
	Elapsed time.Duration // attempt duration (all kinds but EventStart)
	Err     error         // failure cause (EventRestart/EventFail/EventStalled)
}

// Worker is the final per-shard record a coordinator run reports:
// how many attempts the shard took, how long they ran in total, how
// often the monitor had to intervene, and whether it completed.
type Worker struct {
	Shard    int
	Attempts int
	Stalls   int // stall-kills by the liveness monitor
	Elapsed  time.Duration
	Err      error // nil when the shard completed
}

// Coordinator forks one OS process per shard, restarts failed workers
// (each restart resumes from the worker's own checkpoint — the command
// constructor must arm resume), and joins them. It owns no work itself:
// partitioning is Of's arithmetic and merging is the caller's, so the
// coordinator is pure process supervision.
//
// With StallTimeout set it also supervises liveness: a monitor
// goroutine per attempt watches the worker's beacon file and kills the
// process when the beacon's content stops changing for the timeout —
// catching hangs, which never surface as an exit. Staleness is measured
// on the coordinator's local monotonic clock from the moment a content
// change is observed; the beacon's own wall timestamp is never
// consulted, so worker-side clock skew is harmless.
type Coordinator struct {
	// N is the shard count; one worker process per shard.
	N int
	// Command builds the process for one attempt at shard i of n. It is
	// called for restarts too, so it must produce a fresh exec.Cmd each
	// time (a Cmd cannot be started twice).
	Command func(i, n int) *exec.Cmd
	// Retries is how many restarts a crashed shard gets; negative means
	// none, zero means DefaultRetries.
	Retries int
	// OnEvent, when non-nil, receives lifecycle events. Calls are
	// serialized; the hook must not block for long.
	OnEvent func(Event)

	// StallTimeout enables liveness supervision: a worker whose beacon
	// content does not change for this long is killed and restarted
	// with resume. Zero disables monitoring. It must comfortably exceed
	// the longest legitimate gap between beacon writes (worker startup
	// plus one checkpoint chunk), or healthy workers get killed.
	StallTimeout time.Duration
	// BeaconPath names the beacon file for shard i of n; required when
	// StallTimeout is set.
	BeaconPath func(i, n int) string
	// PollInterval is how often the monitor re-reads beacons. Zero
	// defaults to StallTimeout/4, clamped to [10ms, 1s].
	PollInterval time.Duration
	// StallRestarts is how many stall-kills a shard gets before the
	// coordinator gives up on it; negative means none, zero means
	// DefaultStallRestarts. It is budgeted separately from Retries
	// because stall restarts resume from checkpoints and so converge.
	StallRestarts int
}

// Run launches all shards, supervises them to completion and returns
// one Worker record per shard, in shard order. It returns an error when
// any shard exhausted its retries or the context was cancelled; the
// records are returned either way so callers can report partial
// progress. Context cancellation kills running workers via exec's
// process management.
func (c *Coordinator) Run(ctx context.Context) ([]Worker, error) {
	if c.N <= 0 {
		return nil, fmt.Errorf("shard: coordinator needs a positive shard count, got %d", c.N)
	}
	if c.Command == nil {
		return nil, fmt.Errorf("shard: coordinator needs a Command constructor")
	}
	if c.StallTimeout > 0 && c.BeaconPath == nil {
		return nil, fmt.Errorf("shard: stall monitoring needs a BeaconPath")
	}
	retries := c.Retries
	if retries == 0 {
		retries = DefaultRetries
	}
	if retries < 0 {
		retries = 0
	}
	stallBudget := c.StallRestarts
	if stallBudget == 0 {
		stallBudget = DefaultStallRestarts
	}
	if stallBudget < 0 {
		stallBudget = 0
	}

	var eventMu sync.Mutex
	emit := func(ev Event) {
		if c.OnEvent == nil {
			return
		}
		eventMu.Lock()
		defer eventMu.Unlock()
		c.OnEvent(ev)
	}

	workers := make([]Worker, c.N)
	var wg sync.WaitGroup
	wg.Add(c.N)
	for i := 0; i < c.N; i++ {
		go func(i int) {
			defer wg.Done()
			w := &workers[i]
			w.Shard = i
			crashes := 0
			for attempt := 1; ; attempt++ {
				w.Attempts = attempt
				if err := ctx.Err(); err != nil {
					w.Err = err
					return
				}
				res := c.attempt(ctx, i, attempt, emit)
				w.Elapsed += res.elapsed
				if res.stalled {
					w.Stalls++
					workersStalledCtr.Add(1)
					emit(Event{Kind: EventStalled, Shard: i, Attempt: attempt, Elapsed: res.elapsed, Err: res.err})
				}
				if res.err == nil {
					emit(Event{Kind: EventExit, Shard: i, Attempt: attempt, Elapsed: res.elapsed})
					return
				}
				if ctx.Err() != nil {
					w.Err = ctx.Err()
					return
				}
				if res.stalled {
					if w.Stalls > stallBudget {
						workerFailuresCtr.Add(1)
						w.Err = fmt.Errorf("shard %d/%d gave up after %d stall-kills: %w", i, c.N, w.Stalls, res.err)
						emit(Event{Kind: EventFail, Shard: i, Attempt: attempt, Elapsed: res.elapsed, Err: res.err})
						return
					}
					// The stall itself was already announced; the next
					// EventStart is the restart.
					continue
				}
				crashes++
				if crashes > retries {
					workerFailuresCtr.Add(1)
					w.Err = fmt.Errorf("shard %d/%d failed after %d attempts: %w", i, c.N, attempt, res.err)
					emit(Event{Kind: EventFail, Shard: i, Attempt: attempt, Elapsed: res.elapsed, Err: res.err})
					return
				}
				workerRestartsCtr.Add(1)
				emit(Event{Kind: EventRestart, Shard: i, Attempt: attempt, Elapsed: res.elapsed, Err: res.err})
			}
		}(i)
	}
	wg.Wait()

	var firstErr error
	for i := range workers {
		if workers[i].Err != nil {
			firstErr = workers[i].Err
			break
		}
	}
	return workers, firstErr
}

// attemptOutcome is what one supervised attempt reports back to the
// per-shard retry loop.
type attemptOutcome struct {
	err     error
	stalled bool // the monitor killed the worker for lack of beacon progress
	elapsed time.Duration
}

// attempt runs one supervised attempt at shard i: the worker process
// and, with StallTimeout set, a beacon monitor that kills it when its
// progress stops. The process has been reaped by the time attempt
// returns, so no writer can touch the shard's files after.
func (c *Coordinator) attempt(ctx context.Context, i, attempt int, emit func(Event)) attemptOutcome {
	start := time.Now()
	var out attemptOutcome
	finish := func() attemptOutcome { out.elapsed = time.Since(start); return out }

	cmd := c.Command(i, c.N)
	if err := cmd.Start(); err != nil {
		out.err = err
		return finish()
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	workersLaunchedCtr.Add(1)
	emit(Event{Kind: EventStart, Shard: i, Attempt: attempt})

	var stalled chan struct{}
	if c.StallTimeout > 0 {
		stalled = make(chan struct{})
		stop := make(chan struct{})
		defer close(stop)
		go c.monitor(i, stalled, stop)
	}

	select {
	case err := <-done:
		out.err = err
	case <-stalled:
		_ = cmd.Process.Kill()
		// A clean exit wins even when a stall-kill raced it: exit 0
		// means the shard's work is complete on disk.
		if err := <-done; err != nil {
			out.err = fmt.Errorf("%w: no beacon progress for %v (shard %d/%d, attempt %d)",
				ErrStalled, c.StallTimeout, i, c.N, attempt)
			out.stalled = true
		}
	case <-ctx.Done():
		_ = cmd.Process.Kill()
		<-done
		out.err = ctx.Err()
	}
	return finish()
}

// monitor watches shard i's beacon until stopped, closing stalled when
// the beacon's content has not changed for StallTimeout. Process start
// is the liveness baseline, so a worker that hangs before its first
// beacon is caught too.
func (c *Coordinator) monitor(i int, stalled chan<- struct{}, stop <-chan struct{}) {
	poll := c.PollInterval
	if poll <= 0 {
		poll = c.StallTimeout / 4
	}
	if poll < 10*time.Millisecond {
		poll = 10 * time.Millisecond
	}
	if poll > time.Second {
		poll = time.Second
	}
	path := c.BeaconPath(i, c.N)
	var last Beacon
	var have bool
	lastChange := time.Now()
	tick := time.NewTicker(poll)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		if b, err := ReadBeacon(path); err == nil && (!have || b.Progressed(last)) {
			last, have = b, true
			lastChange = time.Now()
		}
		if time.Since(lastChange) > c.StallTimeout {
			close(stalled)
			return
		}
	}
}
