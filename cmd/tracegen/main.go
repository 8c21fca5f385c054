// Command tracegen synthesizes a workload trace and prints its profile
// statistics: instruction mix, dependency-distance summary, branch
// behaviour, and code/data footprints. Useful for inspecting the
// statistical workload models that substitute for the paper's PowerPC
// traces.
//
// Usage:
//
//	tracegen [-n instructions] [-trace spans.jsonl] [benchmark ...]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	n := fs.Int("n", 100000, "trace length in instructions")
	traceFile := fs.String("trace", "", "enable span tracing; write the span log (JSONL) to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *traceFile != "" {
		obs.Enable(true)
	}
	benches := fs.Args()
	if len(benches) == 0 {
		benches = trace.Benchmarks()
	}
	for _, bench := range benches {
		sp := obs.Begin("tracegen.bench", obs.String("bench", bench))
		err := describe(out, bench, *n)
		sp.End()
		if err != nil {
			return err
		}
	}
	if *traceFile != "" {
		spans := obs.DefaultTracer.Snapshot()
		if err := obs.WriteSpansFile(*traceFile, spans); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "tracegen: wrote %d trace spans to %s\n", len(spans), *traceFile)
	}
	return nil
}

func describe(out io.Writer, bench string, n int) error {
	tr, err := trace.ForBenchmark(bench, n)
	if err != nil {
		return err
	}
	mix := tr.Mix()
	var (
		depDists   []float64
		taken      int
		branches   int
		dataBlocks = map[uint32]bool{}
		codeBlocks = map[uint32]bool{}
	)
	for _, in := range tr.Insts {
		if in.Dep1 > 0 {
			depDists = append(depDists, float64(in.Dep1))
		}
		codeBlocks[in.PC/trace.BlockBytes] = true
		switch in.Kind {
		case trace.OpBranch:
			branches++
			if in.Taken {
				taken++
			}
		case trace.OpLoad, trace.OpStore:
			dataBlocks[in.Addr/trace.BlockBytes] = true
		}
	}
	dep := stats.Summarize(depDists)
	fmt.Fprintf(out, "%s: %d instructions\n", bench, tr.Len())
	fmt.Fprintf(out, "  mix: int %.1f%%  fp %.1f%%  load %.1f%%  store %.1f%%  branch %.1f%%\n",
		100*mix[trace.OpInt], 100*mix[trace.OpFP], 100*mix[trace.OpLoad],
		100*mix[trace.OpStore], 100*mix[trace.OpBranch])
	fmt.Fprintf(out, "  dependency distance: median %.0f  mean %.1f  p75 %.0f\n", dep.Med, dep.Mean, dep.Q3)
	if branches > 0 {
		fmt.Fprintf(out, "  branches: %.1f%% taken\n", 100*float64(taken)/float64(branches))
	}
	fmt.Fprintf(out, "  footprints: code %d blocks (%.0f KB), data %d blocks (%.0f KB)\n",
		len(codeBlocks), float64(len(codeBlocks)*trace.BlockBytes)/1024,
		len(dataBlocks), float64(len(dataBlocks)*trace.BlockBytes)/1024)
	return nil
}
