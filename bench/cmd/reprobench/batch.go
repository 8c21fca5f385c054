package main

import (
	"context"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// studyCommands are the dse commands one studies-models pass runs, each
// in its own process.
var studyCommands = []string{"pareto", "depth", "hetero", "search"}

// batchStats accumulates a batch workload's operations.
type batchStats struct {
	latencies []float64 // ms per operation
	cpu       []float64 // ms per operation
	maxRSSKB  int64
	setups    []time.Duration
}

// proc folds one process into the current operation's totals.
func (s *batchStats) proc(p procResult, lat, cpu *float64) {
	*lat += ms(p.Wall)
	*cpu += ms(p.CPU)
	if p.MaxRSSKB > s.maxRSSKB {
		s.maxRSSKB = p.MaxRSSKB
	}
}

// metrics reports the end-to-end metrics.
func (s *batchStats) metrics(r *result) {
	r.metrics["latency_p50_ms"] = quantile(s.latencies, 0.5)
	r.metrics["latency_mean_ms"] = mean(s.latencies)
	r.metrics["cpu_ms_per_op"] = quantile(s.cpu, 0.5)
	r.metrics["peak_rss_mb"] = float64(s.maxRSSKB) / 1024
	r.metrics["setup_s"] = medianDuration(s.setups).Seconds()
}

// dseReady probes dse with args: exec until its first line, printed once
// its models are loaded (or, when it trains, as it starts).
func (e *env) dseReady(ctx context.Context, args []string) func() (time.Duration, error) {
	return func() (time.Duration, error) { return probeReady(ctx, e.dse(), args...) }
}

// measure repeats op until the next repeat would end after the run's
// measured time, and runs it at least once. op returns its duration.
func (e *env) measure(ctx context.Context, op func() time.Duration) error {
	start := time.Now()
	for {
		d := op()
		if err := ctx.Err(); err != nil {
			return err
		}
		if time.Since(start)+d > e.seconds {
			return nil
		}
	}
}

// check compares one operation's outputs with what the workload must
// reproduce, and counts the operation failed on any mismatch. The
// reference is the golden outputs when the seed has them, otherwise the
// first operation of the invocation, so repeats and the traced run must
// match it. The result keeps its first operation's outputs.
func (e *env) check(r *result, workload string, got outputs) {
	if r.outputs.Digests == nil {
		r.outputs = got
	}
	ref, ok := e.refs[workload]
	if !ok {
		if e.golden == nil {
			e.refs[workload] = got
			return
		}
		ref = e.golden.of(workload)
		e.refs[workload] = ref
	}
	unstable, problems := checkOutputs(ref, got)
	if unstable > int(r.metrics["report.figure5a_unstable_fields"]) {
		r.metrics["report.figure5a_unstable_fields"] = float64(unstable)
	}
	if len(problems) > 0 {
		r.fail("outputs differ: %s", strings.Join(problems, "; "))
	}
}

func runReportPaper(ctx context.Context, e *env) (*result, error) {
	args := append(e.reportFlags(), "report")
	r, s := newResult(), &batchStats{}
	var err error
	if s.setups, err = e.setUp(ctx, r, false, e.dseReady(ctx, args)); err != nil {
		return nil, err
	}
	err = e.measure(ctx, func() time.Duration {
		p := runProc(ctx, e.dse(), args...)
		var lat, cpu float64
		s.proc(p, &lat, &cpu)
		s.latencies, s.cpu = append(s.latencies, lat), append(s.cpu, cpu)
		r.attempted++
		if p.Err != nil {
			r.fail("%v", p.Err)
			return p.Wall
		}
		e.check(r, "report-paper", outputs{Digests: map[string]string{"report-paper/stdout": digest(reportBody(p.Stdout))}})
		if !e.smoke {
			if err := checkFigure1(p.Stdout); err != nil {
				r.fail("%v", err)
			}
		}
		return p.Wall
	})
	s.metrics(r)
	return r, err
}

func runStudiesModels(ctx context.Context, e *env) (*result, error) {
	r, s := newResult(), &batchStats{}
	var err error
	if s.setups, err = e.setUp(ctx, r, true, e.dseReady(ctx, append(e.modelFlags(), "-nosim", studyCommands[0]))); err != nil {
		return nil, err
	}
	err = e.measure(ctx, func() time.Duration {
		var lat, cpu float64
		got := outputs{Digests: map[string]string{}}
		failed := false
		for _, c := range studyCommands {
			p := runProc(ctx, e.dse(), append(e.modelFlags(), "-nosim", c)...)
			s.proc(p, &lat, &cpu)
			r.attempted++
			if p.Err != nil {
				r.fail("%v", p.Err)
				failed = true
				continue
			}
			got.Digests["studies-models/"+c] = digest(reportBody(p.Stdout))
		}
		s.latencies, s.cpu = append(s.latencies, lat), append(s.cpu, cpu)
		if !failed {
			e.check(r, "studies-models", got)
		}
		return time.Duration(lat * float64(time.Millisecond))
	})
	s.metrics(r)
	return r, err
}

func runExportCSV(ctx context.Context, e *env) (*result, error) {
	dir := filepath.Join(e.work, "csv")
	args := append(e.modelFlags(), "-nosim", "-csvdir", dir, "report")
	r, s := newResult(), &batchStats{}
	var err error
	if s.setups, err = e.setUp(ctx, r, true, e.dseReady(ctx, args)); err != nil {
		return nil, err
	}
	err = e.measure(ctx, func() time.Duration {
		if err := os.RemoveAll(dir); err != nil {
			r.fail("clearing %s: %v", dir, err)
		}
		p := runProc(ctx, e.dse(), args...)
		var lat, cpu float64
		s.proc(p, &lat, &cpu)
		s.latencies, s.cpu = append(s.latencies, lat), append(s.cpu, cpu)
		r.attempted++
		if p.Err != nil {
			r.fail("%v", p.Err)
			return p.Wall
		}
		got, err := csvOutputs(dir)
		if err != nil {
			r.fail("reading CSV output: %v", err)
			return p.Wall
		}
		got.Digests["export-csv/stdout"] = digest(reportBody(p.Stdout))
		e.check(r, "export-csv", got)
		if !e.smoke {
			if err := checkFigure1(p.Stdout); err != nil {
				r.fail("%v", err)
			}
		}
		return p.Wall
	})
	// The CSVs are large; only their digests are kept.
	if rmErr := os.RemoveAll(dir); err == nil {
		err = rmErr
	}
	s.metrics(r)
	return r, err
}

// csvOutputs digests every CSV in dir, keeping figure5a.csv as text.
func csvOutputs(dir string) (outputs, error) {
	o := outputs{Digests: map[string]string{}}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return o, err
	}
	names := make([]string, 0, len(entries))
	for _, de := range entries {
		names = append(names, de.Name())
	}
	sort.Strings(names)
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return o, err
		}
		if name == "figure5a.csv" {
			o.Figure5a = string(data)
			continue
		}
		o.Digests["export-csv/"+name] = digest(data)
	}
	return o, nil
}
