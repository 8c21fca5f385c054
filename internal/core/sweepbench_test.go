package core

import (
	"bytes"
	"context"
	"sync"
	"testing"
)

// copyModels transfers trained models from src to dst through the
// persistence round-trip, so benchmark explorers share one training run.
func copyModels(src, dst *Explorer) error {
	var buf bytes.Buffer
	if err := src.SaveModels(&buf); err != nil {
		return err
	}
	return dst.LoadModels(&buf)
}

// benchSweepState trains a one-benchmark explorer once at a reduced
// budget and shares it across the sweep kernel benchmarks, so each
// benchmark measures only the 262,500-point sweep itself.
var benchSweepState struct {
	once sync.Once
	e    *Explorer
	err  error
}

func benchSweepExplorer(b *testing.B) *Explorer {
	b.Helper()
	benchSweepState.once.Do(func() {
		opts := DefaultOptions()
		opts.TrainSamples = 120
		opts.ValidationSamples = 20
		opts.TraceLen = 20000
		opts.Benchmarks = []string{"mcf"}
		e, err := New(opts)
		if err != nil {
			benchSweepState.err = err
			return
		}
		benchSweepState.e = e
		benchSweepState.err = e.Train()
	})
	if benchSweepState.err != nil {
		b.Fatal(benchSweepState.err)
	}
	return benchSweepState.e
}

// sweepKernelBench measures ExhaustivePredictInto on one explorer,
// reporting predictions/s.
func sweepKernelBench(b *testing.B, e *Explorer) {
	out := make([]Prediction, e.StudySpace.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.ExhaustivePredictInto(context.Background(), "mcf", out); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(out)*b.N)/b.Elapsed().Seconds(), "predictions/s")
}

// BenchmarkSweepKernel pits the sweep kernel against its oracle on one
// worker: the blocked SweepPlan kernel and the interpreted per-request
// path (an explorer with its guardrail tripped). Both are bit-identical;
// the delta is pure kernel cost.
func BenchmarkSweepKernel(b *testing.B) {
	oneWorker := func(o *Options) { o.Workers = 1 }
	b.Run("path=blocked", func(b *testing.B) {
		sweepKernelBench(b, explorerLike(b, benchSweepExplorer(b), oneWorker))
	})
	b.Run("path=interpreted", func(b *testing.B) {
		sweepKernelBench(b, interpretedExplorer(b, benchSweepExplorer(b), oneWorker))
	})
}
