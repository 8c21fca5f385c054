// Command dsed is the evaluation-as-a-service daemon: it loads (or
// trains) the per-benchmark regression models once and then serves
// predict / simulate / sweep / pareto / healthz queries over HTTP/JSON,
// each predict or simulate request as one engine batch. docs/API.md is
// the endpoint reference.
//
// Usage:
//
//	dsed [flags]   serve until SIGTERM/SIGINT (graceful drain)
//
// The load generator is reprobench's serve-query workload
// (`sh bench/run.sh --workload serve-query`), not a mode of dsed.
//
// Model lifecycle: -loadmodels serves a model set written by
// `dse -savemodels`; without it the daemon trains at startup with the
// usual budget flags (and -savemodels can persist the result so later
// reloads and restarts skip training). SIGHUP or POST /v1/reload hot
// swaps the models from -loadmodels without dropping in-flight requests.
//
// Operational flags: -maxinflight (admission control, 429 beyond it),
// -deadline (per-request 504), -drain (shutdown grace), -prewarm (build
// the default sweep/pareto views in the background after every
// load/reload), plus the standard observability trio
// -trace/-manifest/-pprof. The run manifest written at exit carries
// per-endpoint request counters and the engine work of every model
// generation served during the session.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "dsed:", err)
		os.Exit(1)
	}
}

// control lets tests drive the daemon lifecycle in-process: ready is
// called with the bound address once serving, and cancelling ctx
// triggers the same graceful drain as SIGTERM.
type control struct {
	ctx   context.Context
	ready func(addr string)
}

func run(args []string, out io.Writer, ctrl *control) error {
	fs := flag.NewFlagSet("dsed", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
	loadModels := fs.String("loadmodels", "", "serve models from this JSON file (written by dse -savemodels); required for reload")
	saveModels := fs.String("savemodels", "", "after training at startup, also write the models to this JSON file")
	samples := fs.Int("samples", 1000, "training designs when training at startup (no -loadmodels)")
	validation := fs.Int("validation", 100, "held-out validation designs when training at startup")
	tracelen := fs.Int("tracelen", 100000, "synthetic trace length per benchmark (simulate endpoint cost)")
	seed := fs.Uint64("seed", 2007, "sampling seed")
	benchList := fs.String("benchmarks", "", "comma-separated benchmark subset (default: full suite)")
	workers := fs.Int("workers", 0, "evaluation worker goroutines (0 = all cores)")
	checkpointDir := fs.String("checkpoint", "", "crash-safe checkpoints for startup training (see dse -checkpoint)")
	resume := fs.Bool("resume", false, "resume startup training from -checkpoint")
	maxInflight := fs.Int("maxinflight", serve.DefaultMaxInFlight, "admission control: concurrent work requests beyond this are rejected with 429 (<0 disables)")
	deadline := fs.Duration("deadline", 30*time.Second, "per-request evaluation deadline; expiry returns 504 (0 = none)")
	drain := fs.Duration("drain", 15*time.Second, "graceful-drain grace period on SIGTERM/SIGINT")
	prewarm := fs.Bool("prewarm", false, "build each generation's default sweep/pareto views in the background after load/reload, so the first request hits the cache")
	traceFile := fs.String("trace", "", "enable span tracing; write the span log (JSONL) to this file at exit")
	manifestFile := fs.String("manifest", "", "write a run manifest (JSON) describing the serving session to this file at exit")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address")

	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		fs.Usage()
		return fmt.Errorf("unexpected arguments %v (dsed takes flags only)", fs.Args())
	}
	if *workers < 0 {
		return fmt.Errorf("-workers must be >= 0, got %d", *workers)
	}
	if *samples <= 0 {
		return fmt.Errorf("-samples must be positive, got %d", *samples)
	}
	if *resume && *checkpointDir == "" {
		return fmt.Errorf("-resume requires -checkpoint")
	}

	if *traceFile != "" {
		obs.Enable(true)
	}
	if *pprofAddr != "" {
		bound, shutdown, err := obs.ServePprof(*pprofAddr)
		if err != nil {
			return err
		}
		defer shutdown()
		fmt.Fprintf(os.Stderr, "dsed: pprof listening on http://%s/debug/pprof/\n", bound)
	}

	opts := core.DefaultOptions()
	opts.TrainSamples = *samples
	opts.ValidationSamples = *validation
	opts.TraceLen = *tracelen
	opts.Seed = *seed
	opts.Workers = *workers
	// The engine-level batch deadline backs the serve-level request
	// deadline: even work that escapes the request path (cold sweeps)
	// stays bounded.
	opts.BatchTimeout = *deadline
	if *benchList != "" {
		opts.Benchmarks = strings.Split(*benchList, ",")
	}
	if *checkpointDir != "" {
		if err := os.MkdirAll(*checkpointDir, 0o755); err != nil {
			return err
		}
		opts.CheckpointDir = *checkpointDir
		opts.Resume = *resume
	}

	var man *obs.Manifest
	if *manifestFile != "" {
		man = obs.NewManifest("dsed", "serve", args)
		man.Seed = *seed
	}

	// The loader builds one serving generation per call: every reload is
	// a whole fresh Explorer, so in-flight requests keep the generation
	// they started on and a failed load changes nothing.
	trained := false
	loader := func() (*core.Explorer, error) {
		e, err := core.New(opts)
		if err != nil {
			return nil, err
		}
		if *loadModels != "" {
			f, err := os.Open(*loadModels)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			if err := e.LoadModels(f); err != nil {
				return nil, err
			}
			return e, nil
		}
		if trained {
			return nil, errors.New("reload requires -loadmodels (startup-trained models have no file to reload from)")
		}
		fmt.Fprintf(os.Stderr, "dsed: training %d-sample models on %d benchmarks (trace length %d)...\n",
			*samples, len(e.Benchmarks()), *tracelen)
		start := time.Now()
		if err := e.Train(); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "dsed: trained in %.1fs\n", time.Since(start).Seconds())
		trained = true
		if *saveModels != "" {
			f, err := os.Create(*saveModels)
			if err != nil {
				return nil, err
			}
			if err := e.SaveModels(f); err != nil {
				f.Close()
				return nil, err
			}
			if err := f.Close(); err != nil {
				return nil, err
			}
			fmt.Fprintf(os.Stderr, "dsed: saved models to %s\n", *saveModels)
		}
		return e, nil
	}

	phase := "load_models"
	if *loadModels == "" {
		phase = "train"
	}
	var pt *obs.PhaseTimer
	if man != nil {
		pt = man.StartPhase(phase)
	}
	srv, err := serve.New(loader, serve.Options{
		MaxInFlight:    *maxInflight,
		RequestTimeout: *deadline,
		PrewarmViews:   *prewarm,
	})
	if err != nil {
		return err
	}
	e, _ := srv.Generation()
	if man != nil {
		sim, model := srv.StatsEpoch()
		pt.End(engineStatsMap(sim, model))
		man.SpaceSize = e.StudySpace.Size()
		man.SampleSpaceSize = e.SampleSpace.Size()
		man.Benchmarks = e.Benchmarks()
		man.Workers = e.Options().Workers
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	fmt.Fprintf(os.Stderr, "dsed: serving %v on http://%s/ (generation 1)\n", e.Benchmarks(), bound)
	if ctrl != nil && ctrl.ready != nil {
		ctrl.ready(bound)
	}

	// Signal plumbing: TERM/INT drain and exit; HUP hot swaps the models.
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT, syscall.SIGHUP)
	defer signal.Stop(sigc)
	stopCtx := context.Background()
	if ctrl != nil && ctrl.ctx != nil {
		stopCtx = ctrl.ctx
	}
	go func() {
		for {
			select {
			case sig := <-sigc:
				if sig == syscall.SIGHUP {
					if gen, err := srv.Reload(); err != nil {
						fmt.Fprintf(os.Stderr, "dsed: reload failed (still serving generation %d): %v\n", gen, err)
					} else {
						fmt.Fprintf(os.Stderr, "dsed: reloaded models (generation %d)\n", gen)
					}
					continue
				}
				fmt.Fprintf(os.Stderr, "dsed: %v received, draining (grace %v)\n", sig, *drain)
			case <-stopCtx.Done():
				fmt.Fprintf(os.Stderr, "dsed: stop requested, draining (grace %v)\n", *drain)
			}
			dctx, cancel := context.WithTimeout(context.Background(), *drain)
			if err := srv.Shutdown(dctx); err != nil {
				fmt.Fprintf(os.Stderr, "dsed: drain incomplete: %v\n", err)
			}
			cancel()
			return
		}
	}()

	var spt *obs.PhaseTimer
	if man != nil {
		spt = man.StartPhase("serve")
	}
	err = srv.Serve(ln)
	st := srv.Stats()
	fmt.Fprintf(out, "dsed: served %d requests (%d rejected, %d timeouts, %d errors), %d reloads, generation %d\n",
		st.Requests, st.Rejected, st.Timeouts, st.Errors, st.Reloads, st.Generation)

	if man != nil {
		sim, model := srv.StatsEpoch()
		m := engineStatsMap(sim, model)
		if m == nil {
			m = make(map[string]int64)
		}
		m["serve_requests"] = st.Requests
		m["serve_rejected"] = st.Rejected
		m["serve_timeouts"] = st.Timeouts
		// Each predict request is one engine batch; both keys are kept
		// for manifest readers that take their ratio.
		m["serve_predict_batches"] = st.Predicts
		m["serve_predict_coalesced"] = st.Predicts
		m["serve_reloads"] = st.Reloads
		m["serve_view_hits"] = st.ViewHits
		m["serve_view_misses"] = st.ViewMisses
		m["serve_view_builds"] = st.ViewBuilds
		spt.End(m)
		var tr *obs.Tracer
		if *traceFile != "" {
			tr = obs.DefaultTracer
		}
		man.Finish(obs.DefaultRegistry, tr)
		if werr := man.WriteFile(*manifestFile); werr != nil {
			return werr
		}
		fmt.Fprintf(os.Stderr, "dsed: wrote run manifest to %s\n", *manifestFile)
	}
	if *traceFile != "" {
		spans := obs.DefaultTracer.Snapshot()
		if werr := obs.WriteSpansFile(*traceFile, spans); werr != nil {
			return werr
		}
		fmt.Fprintf(os.Stderr, "dsed: wrote %d trace spans to %s\n", len(spans), *traceFile)
	}
	return err
}

// engineStatsMap mirrors dse's manifest flattening for the daemon's
// phases, dropping zero entries.
func engineStatsMap(sim, model eval.EngineStats) map[string]int64 {
	m := make(map[string]int64)
	set := func(k string, v int64) {
		if v != 0 {
			m[k] = v
		}
	}
	set("sim_evaluations", sim.Evaluations)
	set("sim_batches", sim.BatchCalls)
	set("sim_cache_hits", sim.CacheHits)
	set("sim_cache_misses", sim.CacheMisses)
	set("sim_warm_hits", sim.WarmHits)
	set("sim_warm_misses", sim.WarmMisses)
	set("sim_outcome_walks", sim.OutcomeWalks)
	set("model_evaluations", model.Evaluations)
	set("model_batches", model.BatchCalls)
	set("model_swept_points", model.SweptPoints)
	if len(m) == 0 {
		return nil
	}
	return m
}
