package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestTracegenAllBenchmarks(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-n", "5000"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, bench := range []string{"ammp", "applu", "equake", "gcc", "gzip", "jbb", "mcf", "mesa", "twolf"} {
		if !strings.Contains(s, bench+": 5000 instructions") {
			t.Fatalf("output missing %s:\n%s", bench, s)
		}
	}
	for _, want := range []string{"mix:", "dependency distance:", "branches:", "footprints:"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q", want)
		}
	}
}

func TestTracegenSubset(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-n", "4000", "mcf"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "mcf") || strings.Contains(s, "gzip") {
		t.Fatalf("subset not respected:\n%s", s)
	}
}

func TestTracegenUnknownBenchmark(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"bogus"}, &out); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestTracegenFootprintsDiffer(t *testing.T) {
	// mcf's data footprint should visibly dwarf gzip's in the output.
	var mcfOut, gzipOut bytes.Buffer
	if err := run([]string{"-n", "20000", "mcf"}, &mcfOut); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-n", "20000", "gzip"}, &gzipOut); err != nil {
		t.Fatal(err)
	}
	if mcfOut.String() == gzipOut.String() {
		t.Fatal("benchmarks produced identical descriptions")
	}
}
