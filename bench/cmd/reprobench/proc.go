package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"sync"
	"syscall"
	"time"
)

// buildBinaries compiles cmd/dse and cmd/dsed from the checkout at root
// into dir, so every run measures the working tree as it stands.
func buildBinaries(ctx context.Context, root, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", dir, "./cmd/dse", "./cmd/dsed")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building cmd/dse and cmd/dsed in %s: %v\n%s", root, err, out)
	}
	return nil
}

// procResult is one finished dse process as the benchmark saw it.
type procResult struct {
	Wall     time.Duration
	CPU      time.Duration // user + system, from rusage
	MaxRSSKB int64
	Stdout   []byte
	Err      error
}

// firstLine is an io.Writer that notes when the first full line arrives.
type firstLine struct {
	once sync.Once
	at   time.Time
	done chan struct{}
}

func (w *firstLine) Write(p []byte) (int, error) {
	if bytes.IndexByte(p, '\n') >= 0 {
		w.once.Do(func() {
			w.at = time.Now()
			close(w.done)
		})
	}
	return len(p), nil
}

// resetPeakRSS shrinks the benchmark's own resident set and resets its
// peak. On Linux a child shares the parent's memory until it execs, and
// its rusage peak starts from the parent's peak; without this, a child
// started after the benchmark grew (as traced runs make it) would report
// the benchmark's memory as its own.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort: Linux only
}

// runProc runs bin to completion and measures it.
func runProc(ctx context.Context, bin string, args ...string) procResult {
	cmd := exec.CommandContext(ctx, bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	resetPeakRSS()
	start := time.Now()
	err := cmd.Run()
	r := procResult{Wall: time.Since(start), Stdout: stdout.Bytes()}
	if ps := cmd.ProcessState; ps != nil {
		r.CPU = ps.UserTime() + ps.SystemTime()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			r.MaxRSSKB = int64(ru.Maxrss)
		}
	}
	if err != nil {
		r.Err = fmt.Errorf("%s %v: %v: %s", filepath.Base(bin), args, err, lastLine(stderr.Bytes()))
	}
	return r
}

// probeReady starts bin, waits for its first line of output, then kills
// it, returning exec-to-first-line: one set-up sample without the work
// that follows.
func probeReady(ctx context.Context, bin string, args ...string) (time.Duration, error) {
	cmd := exec.Command(bin, args...)
	stdout := &firstLine{done: make(chan struct{})}
	var stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = stdout, &stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case <-stdout.done:
		_ = cmd.Process.Kill() // the probe has what it came for; an exited process is fine too
		<-done
		return stdout.at.Sub(start), nil
	case err := <-done:
		return 0, fmt.Errorf("%s exited before its first line: %v: %s", filepath.Base(bin), err, lastLine(stderr.Bytes()))
	case <-ctx.Done():
		_ = cmd.Process.Kill() // cancelled; Wait below reaps it
		<-done
		return 0, ctx.Err()
	}
}

func lastLine(b []byte) string {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		b = b[i+1:]
	}
	return string(b)
}
