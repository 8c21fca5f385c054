package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/shard"
)

// workerCommand builds the process for one distributed-worker attempt.
// It is a variable so tests can substitute a helper-process constructor;
// the default re-executes this binary with the rewritten argument list.
// Worker stdout is routed to stderr: study output on the coordinator's
// stdout stays bit-identical to a single-process run.
var workerCommand = func(args []string) *exec.Cmd {
	exe, err := os.Executable()
	if err != nil {
		exe = os.Args[0]
	}
	cmd := exec.Command(exe, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	return cmd
}

// shardRun executes the dataset command in its four modes: unsharded
// (compute shard 0/1, then merge immediately so the standard checkpoint
// files appear), worker (-shard i/n: compute one slice into its own
// checkpoint), merge (-merge n: reassemble completed shards), and
// coordinator (-distribute n: fork one worker per shard, restart
// failures from their checkpoints, then merge).
type shardRun struct {
	e          *core.Explorer
	out        io.Writer
	man        *obs.Manifest
	idx, count int
	explicit   bool // -shard was given: leave merging to the caller
	merge      int
	distribute int
	workerArgs func(i, n int) []string

	// stallTimeout arms the coordinator's beacon monitor.
	stallTimeout time.Duration
}

func (s *shardRun) run() error {
	switch {
	case s.distribute > 0:
		return s.runDistribute()
	case s.merge > 0:
		return s.runMerge(s.merge)
	default:
		return s.runWorker()
	}
}

// shardRecord describes shard i of n of the dataset domain for the run
// manifest.
func (s *shardRun) shardRecord(i, n int) obs.ShardRecord {
	r := s.e.DatasetShardRange(i, n)
	return obs.ShardRecord{Domain: "dataset", Index: i, Count: n, Lo: r.Lo, Hi: r.Hi}
}

// recordShard appends one shard record to the run manifest, when one is
// being written.
func (s *shardRun) recordShard(rec obs.ShardRecord) {
	if s.man != nil {
		s.man.Shards = append(s.man.Shards, rec)
	}
}

// runWorker computes this process's shard — the whole domain when the
// run is unsharded — and merges immediately in the unsharded case.
func (s *shardRun) runWorker() error {
	rec := s.shardRecord(s.idx, s.count)
	s.recordShard(rec)
	start := time.Now()
	if err := s.e.BuildDatasetShard(context.Background(), s.idx, s.count); err != nil {
		return err
	}
	total := len(s.e.Benchmarks()) * s.e.Options().TrainSamples
	fmt.Fprintf(s.out, "dataset shard %d/%d complete: %d of %d indices in %.1fs\n",
		s.idx, s.count, rec.Hi-rec.Lo, total, time.Since(start).Seconds())
	if !s.explicit {
		return s.runMerge(1)
	}
	return nil
}

// runMerge reassembles n completed shard checkpoints into the standard
// checkpoint files, byte-identical to a single-process run's.
func (s *shardRun) runMerge(n int) error {
	start := time.Now()
	if err := s.e.MergeDatasetShards(n); err != nil {
		return err
	}
	fmt.Fprintf(s.out, "merged %d dataset shard(s) into standard checkpoints in %.1fs\n",
		n, time.Since(start).Seconds())
	return nil
}

// runDistribute supervises one worker process per shard — restarting
// failures, which resume from their own checkpoints — then merges. The
// per-shard progress stream goes to stderr as it happens and into the
// manifest's shard records at the end.
func (s *shardRun) runDistribute() error {
	n := s.distribute
	coord := &shard.Coordinator{
		N: n,
		Command: func(i, n int) *exec.Cmd {
			return workerCommand(s.workerArgs(i, n))
		},
		StallTimeout: s.stallTimeout,
		OnEvent: func(ev shard.Event) {
			switch ev.Kind {
			case shard.EventStart:
				fmt.Fprintf(os.Stderr, "dse: dataset shard %d/%d attempt %d starting\n",
					ev.Shard, n, ev.Attempt)
			case shard.EventExit:
				fmt.Fprintf(os.Stderr, "dse: dataset shard %d/%d attempt %d finished in %.1fs\n",
					ev.Shard, n, ev.Attempt, ev.Elapsed.Seconds())
			case shard.EventRestart:
				fmt.Fprintf(os.Stderr, "dse: dataset shard %d/%d attempt %d failed after %.1fs (%v); restarting from checkpoint\n",
					ev.Shard, n, ev.Attempt, ev.Elapsed.Seconds(), ev.Err)
			case shard.EventFail:
				fmt.Fprintf(os.Stderr, "dse: dataset shard %d/%d gave up after attempt %d: %v\n",
					ev.Shard, n, ev.Attempt, ev.Err)
			case shard.EventStalled:
				fmt.Fprintf(os.Stderr, "dse: dataset shard %d/%d attempt %d stalled (no beacon progress for %s); killed, restarting from checkpoint\n",
					ev.Shard, n, ev.Attempt, s.stallTimeout)
			}
		},
	}
	if s.stallTimeout > 0 {
		coord.BeaconPath = s.e.DatasetBeaconPath
	}
	workers, err := coord.Run(context.Background())
	for _, w := range workers {
		rec := s.shardRecord(w.Shard, n)
		rec.Attempts, rec.Seconds, rec.Status, rec.Stalls = w.Attempts, w.Elapsed.Seconds(), "ok", w.Stalls
		if w.Err != nil {
			rec.Status = "failed"
		}
		s.recordShard(rec)
	}
	if err != nil {
		return err
	}
	attempts := 0
	for _, w := range workers {
		attempts += w.Attempts
	}
	fmt.Fprintf(s.out, "distributed dataset across %d workers (%d attempts)\n", n, attempts)
	return s.runMerge(n)
}
