package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// spec is BENCHMARK.json as the smoke test reads it.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestSmokeEndToEnd builds the repository and runs every workload, traced,
// at the smoke budget. Every metric BENCHMARK.json names must be reported
// with its unit, every output must check, and no operation may fail.
func TestSmokeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the repository and runs every workload")
	}
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if !reflect.DeepEqual(sp.EndToEnd, endToEnd) || !reflect.DeepEqual(sp.PerLayer, perLayer) {
		t.Fatal("BENCHMARK.json's metrics differ from the ones reprobench reports")
	}
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	for i, w := range workloads {
		if i >= len(names) || names[i] != w.name {
			t.Fatalf("BENCHMARK.json workloads %v differ from reprobench's", names)
		}
	}

	start := time.Now()
	recPath := filepath.Join(t.TempDir(), "run.json")
	var out bytes.Buffer
	if err := run([]string{"-smoke", "-seconds", "2", "-trace", "1", "-root", root, "-out", recPath}, &out); err != nil {
		t.Fatalf("reprobench: %v\n%s", err, out.String())
	}
	t.Logf("smoke run took %v", time.Since(start).Round(time.Millisecond))

	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var sum struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatalf("last line is not the summary: %v\n%s", err, out.String())
	}
	if !sum.Correct || sum.Failed != 0 || sum.Attempted == 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d\n%s", sum.Correct, sum.Attempted, sum.Failed, out.String())
	}
	for _, w := range names {
		for _, m := range sp.PerLayer {
			got, ok := sum.Metrics[w+"/"+m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("%s: per-layer %s missing or not in %s", w, m.Name, m.Unit)
			}
		}
	}

	rec, err := readRecord(recPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, wr := range rec.Workloads {
		for _, m := range sp.EndToEnd {
			got, ok := wr.metric(m.Name)
			if !ok || got.Unit != m.Unit || !(got.Median > 0) {
				t.Errorf("%s: end-to-end %s = %+v, want a positive value in %s", wr.Name, m.Name, got, m.Unit)
			}
		}
	}
}
