package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"

	"repro/internal/ckpt"
	"repro/internal/obs"
)

// DefaultCheckpointEvery is the dataset-building checkpoint stride when
// Options.CheckpointEvery is zero: with the paper's 1,000 training
// samples it bounds lost work to a quarter of one benchmark's
// simulations.
const DefaultCheckpointEvery = 250

// Checkpoint observability instruments; they flow into run manifests
// like every obs counter.
var (
	ckptWrittenCtr = obs.DefaultRegistry.Counter("ckpt.written")
	ckptResumedCtr = obs.DefaultRegistry.Counter("ckpt.resumed")
)

// identity is the key a checkpoint must match to be resumed: every
// option that changes what the simulations would produce.
// TraceLen changes every simulated result; Seed and TrainSamples change
// which designs are simulated; the benchmark list changes which files
// exist.
func (e *Explorer) identity() string {
	return fmt.Sprintf("seed=%d;train=%d;val=%d;tracelen=%d;benches=%s",
		e.opts.Seed, e.opts.TrainSamples, e.opts.ValidationSamples,
		e.opts.TraceLen, strings.Join(e.benchmarks, ","))
}

func (e *Explorer) trainCheckpointPath(bench string) string {
	return filepath.Join(e.opts.CheckpointDir, "train-"+bench+".ckpt")
}

// datasetCheckpoint is one benchmark's dataset-building progress: the
// response columns, valid through index Completed. Predictors are not
// stored — they are recomputed from the run's seed, which the identity
// key pins.
type datasetCheckpoint struct {
	Completed int       `json:"completed"`
	BIPS      []float64 `json:"bips"`
	Watts     []float64 `json:"watts"`
}

// loadDatasetCheckpoint loads a benchmark's dataset checkpoint, if one
// exists. A missing checkpoint returns (nil, nil) — start fresh; a
// checkpoint with a mismatched identity, bad checksum or inconsistent
// shape is refused with an error, never silently discarded: the
// operator asked to resume, and resuming nothing when a checkpoint
// exists would quietly throw work away (or worse, mix experiments).
func (e *Explorer) loadDatasetCheckpoint(path string, n int) (*datasetCheckpoint, error) {
	var c datasetCheckpoint
	err := ckpt.Load(path, e.identity(), &c)
	if errors.Is(err, ckpt.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("core: resuming dataset checkpoint: %w", err)
	}
	if c.Completed < 0 || c.Completed > n || len(c.BIPS) != n || len(c.Watts) != n {
		return nil, fmt.Errorf("core: dataset checkpoint %s has %d/%d/%d entries for %d samples",
			path, c.Completed, len(c.BIPS), len(c.Watts), n)
	}
	ckptResumedCtr.Add(1)
	return &c, nil
}

// saveDatasetCheckpoint atomically writes a benchmark's dataset
// progress.
func (e *Explorer) saveDatasetCheckpoint(path string, completed int, bips, watts []float64) error {
	err := ckpt.Save(path, e.identity(), datasetCheckpoint{
		Completed: completed, BIPS: bips, Watts: watts,
	})
	if err != nil {
		return fmt.Errorf("core: writing dataset checkpoint: %w", err)
	}
	ckptWrittenCtr.Add(1)
	return nil
}
