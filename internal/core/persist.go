package core

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/eval"
	"repro/internal/regression"
)

// modelSetJSON is the on-disk form of a trained explorer's models: one
// performance and one power model per benchmark, plus enough metadata to
// detect mismatched reuse.
type modelSetJSON struct {
	Version      int                          `json:"version"`
	TrainSamples int                          `json:"train_samples"`
	TraceLen     int                          `json:"trace_len"`
	Seed         uint64                       `json:"seed"`
	Performance  map[string]*regression.Model `json:"performance"`
	Power        map[string]*regression.Model `json:"power"`
}

const modelSetVersion = 1

// SaveModels writes the trained models as JSON. Training (the expensive
// part: a thousand simulations per benchmark) can then be done once and
// the models reused across studies, as the paper advocates.
func (e *Explorer) SaveModels(w io.Writer) error {
	if !e.Trained() {
		return fmt.Errorf("core: SaveModels before Train")
	}
	set := modelSetJSON{
		Version:      modelSetVersion,
		TrainSamples: e.opts.TrainSamples,
		TraceLen:     e.opts.TraceLen,
		Seed:         e.opts.Seed,
		Performance:  e.perf,
		Power:        e.pow,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(set)
}

// LoadModels restores models saved by SaveModels, replacing any trained
// state. The explorer's benchmark list must be covered by the saved set.
func (e *Explorer) LoadModels(r io.Reader) error {
	var set modelSetJSON
	if err := json.NewDecoder(r).Decode(&set); err != nil {
		return fmt.Errorf("core: decoding models: %w", err)
	}
	if set.Version != modelSetVersion {
		return fmt.Errorf("core: model set version %d, want %d", set.Version, modelSetVersion)
	}
	for _, b := range e.benchmarks {
		if set.Performance[b] == nil || set.Power[b] == nil {
			return fmt.Errorf("core: saved models missing benchmark %q", b)
		}
	}
	// Every model the set carries is reachable through Models, so every
	// pair gets its plan before any of them is installed.
	plans := make(map[string]*eval.PairPlan, len(set.Performance))
	for b, perf := range set.Performance {
		if pow := set.Power[b]; perf != nil && pow != nil {
			plan, err := eval.CompilePair(perf, pow, e.StudySpace)
			if err != nil {
				return fmt.Errorf("core: compiling models for %s: %w", b, err)
			}
			plans[b] = plan
		}
	}
	e.mu.Lock()
	e.perf = set.Performance
	e.pow = set.Power
	e.plans = plans
	// Cached sweeps belong to the previous models.
	e.sweepCache = make(map[string][]Prediction)
	e.mu.Unlock()
	e.modelsBackend.Reset()
	return nil
}
