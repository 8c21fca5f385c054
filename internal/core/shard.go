package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/arch"
	"repro/internal/ckpt"
	"repro/internal/eval"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/shard"
)

// ErrShardIncomplete is returned by MergeDatasetShards when a shard
// checkpoint exists but has not finished its range — the worker is
// still running, or died and was never resumed to completion.
var ErrShardIncomplete = errors.New("core: shard incomplete")

// datasetDomain names the dataset-build work domain in shard IDs and
// beacons.
const datasetDomain = "dataset"

// datasetShardID names shard i/n of the dataset-build domain: the
// bench-major (benchmark × config-index) flat range. The fingerprint is
// the sampling space hash; the seed and sample count that pick the
// configs are already part of the base identity.
func (e *Explorer) datasetShardID(i, n int) shard.ID {
	return shard.ID{Domain: datasetDomain, Space: e.SampleSpace.Fingerprint(), Index: i, Count: n}
}

func (e *Explorer) datasetShardPath(i, n int) string {
	return filepath.Join(e.opts.CheckpointDir, fmt.Sprintf("train-shard-%dof%d.ckpt", i, n))
}

// DatasetBeaconPath names the progress beacon dataset shard i of n
// publishes beside its checkpoint, the file a coordinator's stall
// monitor watches.
func (e *Explorer) DatasetBeaconPath(i, n int) string {
	return shard.BeaconPath(e.opts.CheckpointDir, datasetDomain, i, n)
}

// beaconWriter publishes a shard worker's progress heartbeat at every
// checkpoint chunk; the coordinator's monitor reads it to tell a slow
// worker from a stuck one. The sequence number continues from whatever
// beacon is already on disk, so a restarted (resumed) attempt registers
// as progress even when its first chunk re-lands on the same cursor.
type beaconWriter struct {
	path string
	b    shard.Beacon
}

func (e *Explorer) newBeaconWriter(i, n int, r shard.Range) *beaconWriter {
	w := &beaconWriter{
		path: e.DatasetBeaconPath(i, n),
		b: shard.Beacon{
			Version: shard.BeaconVersion,
			Domain:  datasetDomain,
			Index:   i,
			Count:   n,
			Lo:      r.Lo,
			Hi:      r.Hi,
			Cursor:  r.Lo,
			PID:     os.Getpid(),
		},
	}
	if prev, err := shard.ReadBeacon(w.path); err == nil {
		w.b.Seq = prev.Seq
	}
	return w
}

// update publishes progress through absolute index cursor. A failed
// heartbeat fails the shard: a worker nobody can watch must be
// restarted, not trusted to run on invisibly.
func (w *beaconWriter) update(bench string, cursor int) error {
	w.b.Seq++
	w.b.Bench = bench
	w.b.Cursor = cursor
	w.b.Time = time.Now().UnixNano()
	if err := shard.WriteBeacon(w.path, w.b); err != nil {
		return fmt.Errorf("core: publishing shard beacon: %w", err)
	}
	return nil
}

// shardIdentity keys a shard checkpoint: the run identity (seed, sample
// counts, trace length, benchmarks) plus the shard ID (domain
// fingerprint, i/n). Both must match for ckpt.Load to accept the file.
func (e *Explorer) shardIdentity(i, n int) string {
	return e.identity() + ";" + e.datasetShardID(i, n).String()
}

// DatasetShardRange returns the flat range of the bench-major dataset
// domain (index = bench*TrainSamples + sample) that shard i of n owns.
func (e *Explorer) DatasetShardRange(i, n int) shard.Range {
	return shard.Of(len(e.benchmarks)*e.opts.TrainSamples, i, n)
}

// datasetShardCheckpoint is one dataset shard's progress: response
// columns for the flat indices [Lo, Hi) of the bench-major domain,
// valid through absolute index Completed.
type datasetShardCheckpoint struct {
	Lo        int       `json:"lo"`
	Hi        int       `json:"hi"`
	Completed int       `json:"completed"`
	BIPS      []float64 `json:"bips"`
	Watts     []float64 `json:"watts"`
}

// loadShardCheckpoint loads and shape-checks shard i/n's checkpoint.
// A missing file means "start fresh" (nil, nil); any other failure —
// identity mismatch, checksum, malformed shape — is an error, matching
// loadDatasetCheckpoint's refuse-don't-discard policy.
func (e *Explorer) loadShardCheckpoint(i, n int, r shard.Range) (*datasetShardCheckpoint, error) {
	path := e.datasetShardPath(i, n)
	var c datasetShardCheckpoint
	if err := ckpt.Load(path, e.shardIdentity(i, n), &c); err != nil {
		if errors.Is(err, ckpt.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("core: resuming shard checkpoint: %w", err)
	}
	if c.Lo != r.Lo || c.Hi != r.Hi || c.Completed < c.Lo || c.Completed > c.Hi ||
		len(c.BIPS) != r.Len() || len(c.Watts) != r.Len() {
		return nil, fmt.Errorf("core: shard checkpoint %s covers [%d,%d) done=%d with %d/%d values, want [%d,%d)",
			path, c.Lo, c.Hi, c.Completed, len(c.BIPS), len(c.Watts), r.Lo, r.Hi)
	}
	ckptResumedCtr.Add(1)
	return &c, nil
}

// BuildDatasetShard simulates dataset shard i of n: the slice
// [Lo, Hi) of the bench-major (benchmark × config-index) domain, in
// CheckpointEvery-sample chunks with an identity-keyed checkpoint write
// after each, so a killed worker resumes mid-shard. Chunks may span
// benchmark boundaries; per-(config, benchmark) simulation results are
// deterministic and independent of batch composition, so the shard's
// values are bitwise what a single-process build computes for the same
// indices. Requires CheckpointDir. Training samples are drawn from the
// run seed exactly as Train does.
func (e *Explorer) BuildDatasetShard(ctx context.Context, i, n int) error {
	if e.opts.CheckpointDir == "" {
		return fmt.Errorf("core: BuildDatasetShard requires CheckpointDir (shard output is its checkpoint)")
	}
	samples := e.opts.TrainSamples
	r := e.DatasetShardRange(i, n)
	path := e.datasetShardPath(i, n)
	identity := e.shardIdentity(i, n)

	ctx, sp := obs.Start(ctx, "core.dataset.shard",
		obs.String("shard", fmt.Sprintf("%d/%d", i, n)),
		obs.Int("lo", int64(r.Lo)), obs.Int("hi", int64(r.Hi)))
	defer sp.End()

	c := &datasetShardCheckpoint{
		Lo: r.Lo, Hi: r.Hi, Completed: r.Lo,
		BIPS:  make([]float64, r.Len()),
		Watts: make([]float64, r.Len()),
	}
	if e.opts.Resume {
		loaded, err := e.loadShardCheckpoint(i, n, r)
		if err != nil {
			return err
		}
		if loaded != nil {
			c = loaded
		}
	}
	completed := c.Completed

	points := e.SampleSpace.SampleUAR(samples, e.opts.Seed)
	configs := make([]arch.Config, len(points))
	for j, p := range points {
		configs[j] = e.SampleSpace.Config(p)
	}
	chunk := e.opts.CheckpointEvery
	if chunk <= 0 {
		chunk = DefaultCheckpointEvery
	}
	beacon := e.newBeaconWriter(i, n, r)
	if err := beacon.update("", completed); err != nil {
		return err
	}
	for lo := completed; lo < r.Hi; lo += chunk {
		hi := lo + chunk
		if hi > r.Hi {
			hi = r.Hi
		}
		// Deterministic kill/hang site for coordinator and CI fault
		// drills: one visit per checkpoint chunk.
		if err := fault.HereCtx(ctx, "core.dataset.shard"); err != nil {
			return err
		}
		reqs := make([]eval.Request, hi-lo)
		for idx := lo; idx < hi; idx++ {
			reqs[idx-lo] = eval.Request{
				Config: configs[idx%samples],
				Bench:  e.benchmarks[idx/samples],
			}
		}
		results, err := e.SimulateBatch(ctx, reqs)
		if err != nil {
			return err
		}
		for j, res := range results {
			c.BIPS[lo+j-r.Lo] = res.BIPS
			c.Watts[lo+j-r.Lo] = res.Watts
		}
		c.Completed = hi
		if err := ckpt.Save(path, identity, c); err != nil {
			return fmt.Errorf("core: writing dataset shard checkpoint: %w", err)
		}
		ckptWrittenCtr.Add(1)
		if err := beacon.update(e.benchmarks[(hi-1)/samples], hi); err != nil {
			return err
		}
	}
	if completed >= r.Hi {
		if err := ckpt.Save(path, identity, c); err != nil {
			return fmt.Errorf("core: writing dataset shard checkpoint: %w", err)
		}
		ckptWrittenCtr.Add(1)
	}
	return nil
}

// MergeDatasetShards reassembles the n dataset shard checkpoints into
// the standard per-benchmark training checkpoints (train-<bench>.ckpt,
// marked fully complete), byte-identical to the files an unsharded
// checkpointed Train writes. A subsequent Train with Resume loads them
// and fits models without a single simulation. Every shard must exist,
// match identity and partition, and be complete.
func (e *Explorer) MergeDatasetShards(n int) error {
	if e.opts.CheckpointDir == "" {
		return fmt.Errorf("core: MergeDatasetShards requires CheckpointDir")
	}
	if n <= 0 {
		return fmt.Errorf("core: MergeDatasetShards needs a positive shard count, got %d", n)
	}
	samples := e.opts.TrainSamples
	perBench := make(map[string][]shard.Piece, len(e.benchmarks))
	for i := 0; i < n; i++ {
		var c datasetShardCheckpoint
		path := e.datasetShardPath(i, n)
		if err := ckpt.Load(path, e.shardIdentity(i, n), &c); err != nil {
			return fmt.Errorf("core: loading dataset shard %d/%d: %w", i, n, err)
		}
		r := e.DatasetShardRange(i, n)
		if c.Lo != r.Lo || c.Hi != r.Hi {
			return fmt.Errorf("core: dataset shard %d/%d covers [%d,%d), partition says %v",
				i, n, c.Lo, c.Hi, r)
		}
		if c.Completed != c.Hi {
			return fmt.Errorf("%w: dataset shard %d/%d at %d of [%d,%d)",
				ErrShardIncomplete, i, n, c.Completed, c.Lo, c.Hi)
		}
		for _, seg := range shard.Segments(e.benchmarks, samples, r) {
			absLo, absHi := seg.Index*samples+seg.Lo, seg.Index*samples+seg.Hi
			perBench[seg.Group] = append(perBench[seg.Group], shard.Piece{
				Lo:    seg.Lo,
				Hi:    seg.Hi,
				BIPS:  c.BIPS[absLo-r.Lo : absHi-r.Lo],
				Watts: c.Watts[absLo-r.Lo : absHi-r.Lo],
			})
		}
	}
	for _, bench := range e.benchmarks {
		bips, watts, err := shard.MergeColumns(samples, perBench[bench])
		if err != nil {
			return fmt.Errorf("core: merging dataset shards for %s: %w", bench, err)
		}
		if err := e.saveDatasetCheckpoint(e.trainCheckpointPath(bench), samples, bips, watts); err != nil {
			return err
		}
	}
	return nil
}
