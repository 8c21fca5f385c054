package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// Shared model fixture: one tiny trained model set, written once per test
// process, served by every daemon the tests start.
var fixtureDir string

func TestMain(m *testing.M) {
	if os.Getenv("DSED_HELPER") == "1" {
		// Helper invocations run the daemon on the parent's model file; no
		// fixture of their own.
		os.Exit(m.Run())
	}
	dir, err := os.MkdirTemp("", "dsed-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fixtureDir = dir
	if err := writeFixtureModels(filepath.Join(dir, "models.json")); err != nil {
		fmt.Fprintln(os.Stderr, "building model fixture:", err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func writeFixtureModels(path string) error {
	opts := core.DefaultOptions()
	opts.TrainSamples = 40
	opts.ValidationSamples = 5
	opts.TraceLen = 2000
	opts.Benchmarks = []string{"gzip"}
	e, err := core.New(opts)
	if err != nil {
		return err
	}
	if err := e.Train(); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := e.SaveModels(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func modelsFile() string { return filepath.Join(fixtureDir, "models.json") }

// daemonArgs are the fast common flags every in-process daemon test uses.
func daemonArgs(extra ...string) []string {
	base := []string{
		"-addr", "127.0.0.1:0",
		"-loadmodels", modelsFile(),
		"-benchmarks", "gzip",
		"-drain", "10s",
	}
	return append(base, extra...)
}

// startDaemon runs the daemon in-process and returns its base URL, its
// output buffer, a stop function (graceful drain) and the run-result
// channel.
func startDaemon(t *testing.T, args []string) (string, *bytes.Buffer, func(), chan error) {
	t.Helper()
	var out bytes.Buffer
	ready := make(chan string, 1)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- run(args, &out, &control{ctx: ctx, ready: func(addr string) { ready <- addr }})
	}()
	select {
	case addr := <-ready:
		stop := func() {
			cancel()
			select {
			case err := <-done:
				done <- err
			case <-time.After(30 * time.Second):
				t.Error("daemon did not stop within 30s")
			}
		}
		return "http://" + addr, &out, stop, done
	case err := <-done:
		t.Fatalf("daemon exited before ready: %v\n%s", err, out.String())
	case <-time.After(60 * time.Second):
		t.Fatal("daemon never became ready")
	}
	panic("unreachable")
}

func TestFlagValidation(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"positional"}, &out, nil); err == nil {
		t.Fatal("positional argument accepted")
	}
	if err := run([]string{"-workers", "-1"}, &out, nil); err == nil {
		t.Fatal("negative workers accepted")
	}
	if err := run([]string{"-samples", "0"}, &out, nil); err == nil {
		t.Fatal("zero samples accepted")
	}
	if err := run([]string{"-resume"}, &out, nil); err == nil {
		t.Fatal("-resume without -checkpoint accepted")
	}
	if err := run([]string{"-not-a-flag"}, &out, nil); err == nil {
		t.Fatal("unknown flag accepted")
	}
	// Requests are never held back for batching, so there is no window
	// to configure.
	if err := run([]string{"-coalesce", "2ms"}, &out, nil); err == nil {
		t.Fatal("-coalesce accepted")
	}
}

func TestDaemonEndToEnd(t *testing.T) {
	manifest := filepath.Join(t.TempDir(), "manifest.json")
	url, out, stop, done := startDaemon(t, daemonArgs("-manifest", manifest))

	resp, err := http.Get(url + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz serve.HealthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hz.Status != "ok" || hz.Generation != 1 || len(hz.Benchmarks) != 1 || hz.Benchmarks[0] != "gzip" {
		t.Fatalf("healthz = %+v", hz)
	}

	resp, err = http.Post(url+"/v1/predict", "application/json",
		strings.NewReader(`{"bench":"gzip","indices":[0,17]}`))
	if err != nil {
		t.Fatal(err)
	}
	var pr serve.PointResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(pr.Results) != 2 {
		t.Fatalf("predict = %d %+v", resp.StatusCode, pr)
	}

	// Hot reload over HTTP bumps the generation.
	resp, err = http.Post(url+"/v1/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rr serve.ReloadResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || rr.Generation != 2 {
		t.Fatalf("reload = %d %+v", resp.StatusCode, rr)
	}
	resp, err = http.Post(url+"/v1/predict", "application/json",
		strings.NewReader(`{"bench":"gzip","indices":[5]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict after reload = %d", resp.StatusCode)
	}

	stop()
	if err := <-done; err != nil {
		t.Fatalf("daemon exit = %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "served") {
		t.Fatalf("missing serve summary in output:\n%s", out.String())
	}

	// The manifest recorded the serving session.
	data, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		Tool      string  `json:"tool"`
		PeakRSSMB float64 `json:"peak_rss_mb"`
		Phases    []struct {
			Name  string           `json:"name"`
			Stats map[string]int64 `json:"stats"`
		} `json:"phases"`
	}
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	if man.Tool != "dsed" || runtime.GOOS == "linux" && man.PeakRSSMB <= 0 {
		t.Fatalf("manifest tool = %q, peak_rss_mb = %v", man.Tool, man.PeakRSSMB)
	}
	var serveCounters map[string]int64
	for _, ph := range man.Phases {
		if ph.Name == "serve" {
			serveCounters = ph.Stats
		}
	}
	if serveCounters == nil {
		t.Fatalf("manifest has no serve phase: %s", data)
	}
	if serveCounters["serve_requests"] != 2 || serveCounters["serve_reloads"] != 1 {
		t.Fatalf("serve phase counters = %v", serveCounters)
	}
	// One predict per generation: the engine work of the generation the
	// reload retired is reported, not only the live one's.
	if serveCounters["model_batches"] != 2 {
		t.Fatalf("model_batches = %d, want 2 (one predict on each generation)", serveCounters["model_batches"])
	}
	if serveCounters["serve_predict_batches"] != 2 || serveCounters["serve_predict_coalesced"] != 2 {
		t.Fatalf("serve_predict_batches/coalesced = %d/%d, want 2/2",
			serveCounters["serve_predict_batches"], serveCounters["serve_predict_coalesced"])
	}
}

func TestTrainAtStartupAndSaveModels(t *testing.T) {
	saved := filepath.Join(t.TempDir(), "trained.json")
	args := []string{
		"-addr", "127.0.0.1:0",
		"-samples", "40", "-validation", "5", "-tracelen", "2000",
		"-benchmarks", "gzip",
		"-savemodels", saved,
	}
	url, out, stop, done := startDaemon(t, args)
	resp, err := http.Post(url+"/v1/predict", "application/json",
		strings.NewReader(`{"bench":"gzip","indices":[3]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict on startup-trained daemon = %d", resp.StatusCode)
	}
	if _, err := os.Stat(saved); err != nil {
		t.Fatalf("-savemodels wrote nothing: %v", err)
	}
	// Reload has no file to reload from (the models were trained, not
	// loaded): it must fail and keep serving.
	resp, err = http.Post(url+"/v1/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("reload without -loadmodels = %d, want 500", resp.StatusCode)
	}
	resp, err = http.Get(url + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after failed reload = %d", resp.StatusCode)
	}
	stop()
	if err := <-done; err != nil {
		t.Fatalf("daemon exit = %v\n%s", err, out.String())
	}
}

// TestDaemonSurvivesFaultsAndSignals is the kill test: a real daemon
// process runs with panics injected into the serving path, takes traffic
// (some of it answered 500), hot reloads on SIGHUP, and still exits 0 on
// SIGTERM.
func TestDaemonSurvivesFaultsAndSignals(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a daemon process")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestDsedHelperProcess$", "--",
		"-addr", "127.0.0.1:0",
		"-loadmodels", modelsFile(),
		"-benchmarks", "gzip",
		"-drain", "10s")
	cmd.Env = append(os.Environ(),
		"DSED_HELPER=1",
		"REPRO_FAULT_PLAN=seed=7;serve.request:panic:p=0.25")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill() //nolint:errcheck // backstop for early t.Fatal

	// Watch stderr for the serving address and reload confirmations.
	lines := make(chan string, 64)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	waitLine := func(substr string) string {
		deadline := time.After(60 * time.Second)
		for {
			select {
			case ln, ok := <-lines:
				if !ok {
					t.Fatalf("daemon stderr closed while waiting for %q", substr)
				}
				if strings.Contains(ln, substr) {
					return ln
				}
			case <-deadline:
				t.Fatalf("timed out waiting for %q on daemon stderr", substr)
			}
		}
	}
	ln := waitLine("serving")
	addr := ln[strings.Index(ln, "http://")+len("http://"):]
	addr = strings.TrimSuffix(strings.Fields(addr)[0], "/")
	url := "http://" + addr

	drive := func(n int) (ok, faulted int) {
		for i := 0; i < n; i++ {
			resp, err := http.Post(url+"/v1/predict", "application/json",
				strings.NewReader(fmt.Sprintf(`{"bench":"gzip","indices":[%d]}`, i)))
			if err != nil {
				t.Fatalf("request %d: daemon gone: %v", i, err)
			}
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				ok++
			case http.StatusInternalServerError:
				faulted++
			default:
				t.Fatalf("request %d: status %d", i, resp.StatusCode)
			}
		}
		return ok, faulted
	}
	ok, faulted := drive(40)
	if ok == 0 {
		t.Fatal("no request survived the fault plan")
	}
	if faulted == 0 {
		t.Fatal("fault plan (p=0.25 panics) never fired in 40 requests")
	}

	// SIGHUP hot swaps the models under the same injected chaos.
	if err := cmd.Process.Signal(syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	waitLine("generation 2")
	if ok, _ := drive(10); ok == 0 {
		t.Fatal("no request served after SIGHUP reload")
	}

	// SIGTERM drains and exits 0 despite every recovered panic.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon exit after SIGTERM = %v, want success", err)
	}
}

// TestDsedHelperProcess is the spawned daemon: under DSED_HELPER=1 it
// runs the real CLI on the arguments after "--" and exits with its
// status, exactly like the shipped binary.
func TestDsedHelperProcess(t *testing.T) {
	if os.Getenv("DSED_HELPER") != "1" {
		return
	}
	sep := -1
	for i, a := range os.Args {
		if a == "--" {
			sep = i
			break
		}
	}
	if sep < 0 {
		fmt.Fprintln(os.Stderr, "helper: no -- separator")
		os.Exit(2)
	}
	if err := run(os.Args[sep+1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "dsed:", err)
		os.Exit(1)
	}
	os.Exit(0)
}
