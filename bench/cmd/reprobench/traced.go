package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call, recorded by the benchmark around a layer's
// public function. Spans of one run share Run; Parent 0 is a root.
type span struct {
	Run     string `json:"run"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps a run's spans in memory until the run ends. One
// goroutine records them.
type tracer struct {
	run   string
	epoch time.Time
	spans []span
}

func newTracer(workload string, seed uint64) *tracer {
	now := time.Now()
	return &tracer{run: fmt.Sprintf("%s-seed%d-%d", workload, seed, now.UnixNano()), epoch: now}
}

// add records a span that ran from start to end and returns its id.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Run: t.run, ID: id, Parent: parent, Name: name,
		StartNS: start.Sub(t.epoch).Nanoseconds(), EndNS: end.Sub(t.epoch).Nanoseconds()})
	return id
}

// open starts a span whose end is set by close; it lets children name
// their parent while it runs.
func (t *tracer) open(name string, parent int) int {
	now := time.Now()
	return t.add(name, parent, now, now)
}

func (t *tracer) close(id int) {
	t.spans[id-1].EndNS = time.Since(t.epoch).Nanoseconds()
}

// do runs fn inside a span.
func (t *tracer) do(name string, parent int, fn func() error) error {
	start := time.Now()
	err := fn()
	t.add(name, parent, start, time.Now())
	return err
}

// selfTimes sums, per span name, each span's duration minus the part
// its children cover. The benchmark's spans under one parent never
// overlap, so children's durations subtract directly.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make(map[int]time.Duration)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range t.spans {
		self[s.Name] += s.dur() - child[s.ID]
	}
	return self
}

// total sums the durations of every span named name.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			d += s.dur()
		}
	}
	return d
}

// write saves the spans as JSON lines.
func (t *tracer) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, t.run+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err == nil {
			err = enc.Encode(s)
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}

// countingWriter counts the calls and bytes written through it.
type countingWriter struct {
	w            io.Writer
	calls, bytes int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.calls++
	n, err := c.w.Write(p)
	c.bytes += int64(n)
	return n, err
}

// finishTrace writes the span log and reports where it went.
func (e *env) finishTrace(t *tracer) error {
	path, err := t.write(e.spans)
	if err != nil {
		return fmt.Errorf("writing span log: %w", err)
	}
	fmt.Fprintf(os.Stderr, "reprobench: wrote %d spans to %s\n", len(t.spans), path)
	return nil
}

// overheadPct is how much slower the traced run's latency is than the
// untraced run's, in percent.
func overheadPct(traced, untraced float64) float64 {
	if untraced == 0 {
		return 0
	}
	return 100 * (traced - untraced) / untraced
}
