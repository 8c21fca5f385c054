package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// maxFigure1ErrPct is the Figure 1 tolerance reproduction_test.go holds
// the models to: both suite-wide median errors at or below 10%.
const maxFigure1ErrPct = 10

// figure5aRelTol is how far a figure5a.csv field may drift between
// identical runs: depthstudy.Average sums over a map, so its last digits
// follow map iteration order.
const figure5aRelTol = 1e-12

// outputs is what a workload produced: SHA-256 digests keyed
// "workload/output", and figure5a.csv in full, because it is compared
// field by field. A golden file holds the outputs of the batch workloads
// for one seed at the paper budget.
type outputs struct {
	Digests  map[string]string `json:"digests"`
	Figure5a string            `json:"figure5a_csv,omitempty"`
}

func goldenPath(root string, seed uint64) string {
	return filepath.Join(root, "bench", "golden", fmt.Sprintf("seed-%d.json", seed))
}

// readGolden loads the golden outputs for seed, or nil when none are
// committed for it.
func readGolden(root string, seed uint64) (*outputs, error) {
	data, err := os.ReadFile(goldenPath(root, seed))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var g outputs
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", goldenPath(root, seed), err)
	}
	return &g, nil
}

func writeGolden(root string, seed uint64, g *outputs) error {
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath(root, seed), append(data, '\n'), 0o644)
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// reportBody strips the header dse prints before its results ("training
// ... / trained in 11.9s" or "loaded models from <path>"), which ends at
// the first blank line and holds the only run-dependent text.
func reportBody(stdout []byte) []byte {
	if i := bytes.Index(stdout, []byte("\n\n")); i >= 0 {
		return stdout[i+2:]
	}
	return stdout
}

var figure1Line = regexp.MustCompile(`overall median: performance ([0-9.]+)%, power ([0-9.]+)%`)

// figure1Medians parses the suite-wide median errors, in percent, from
// the first Figure 1 summary line in a report.
func figure1Medians(out []byte) (perf, power float64, err error) {
	m := figure1Line.FindSubmatch(out)
	if m == nil {
		return 0, 0, errors.New("no Figure 1 summary line in output")
	}
	perf, _ = strconv.ParseFloat(string(m[1]), 64)
	power, _ = strconv.ParseFloat(string(m[2]), 64)
	return perf, power, nil
}

// checkFigure1 applies the Figure 1 tolerance to a report's output.
func checkFigure1(out []byte) error {
	perf, power, err := figure1Medians(out)
	if err != nil {
		return err
	}
	if perf > maxFigure1ErrPct || power > maxFigure1ErrPct {
		return fmt.Errorf("Figure 1 median errors %.1f%% / %.1f%% exceed %d%%", perf, power, maxFigure1ErrPct)
	}
	return nil
}

// compareFigure5a compares two figure5a.csv texts field by field. It
// returns how many numeric fields differ at all, and an error if the
// shapes differ or any field differs by more than figure5aRelTol.
func compareFigure5a(want, got string) (unstable int, err error) {
	w, err := csv.NewReader(strings.NewReader(want)).ReadAll()
	if err != nil {
		return 0, fmt.Errorf("figure5a.csv reference: %w", err)
	}
	g, err := csv.NewReader(strings.NewReader(got)).ReadAll()
	if err != nil {
		return 0, fmt.Errorf("figure5a.csv: %w", err)
	}
	if len(w) != len(g) {
		return 0, fmt.Errorf("figure5a.csv has %d rows, want %d", len(g), len(w))
	}
	for i := range w {
		if len(w[i]) != len(g[i]) {
			return 0, fmt.Errorf("figure5a.csv row %d has %d fields, want %d", i, len(g[i]), len(w[i]))
		}
		for j := range w[i] {
			if w[i][j] == g[i][j] {
				continue
			}
			a, errA := strconv.ParseFloat(w[i][j], 64)
			b, errB := strconv.ParseFloat(g[i][j], 64)
			if errA != nil || errB != nil {
				return 0, fmt.Errorf("figure5a.csv row %d field %d: %q, want %q", i, j, g[i][j], w[i][j])
			}
			unstable++
			if math.Abs(a-b) > figure5aRelTol*math.Max(math.Abs(a), math.Abs(b)) {
				return unstable, fmt.Errorf("figure5a.csv row %d field %d: %v, want %v (beyond %g relative)", i, j, b, a, figure5aRelTol)
			}
		}
	}
	return unstable, nil
}

// checkOutputs compares got with the reference: the golden outputs
// when the seed has them, otherwise the first operation of the run.
// It returns the figure5a fields that differed.
func checkOutputs(ref, got outputs) (unstable int, problems []string) {
	for k, want := range ref.Digests {
		if have, ok := got.Digests[k]; !ok {
			problems = append(problems, fmt.Sprintf("%s: missing", k))
		} else if have != want {
			problems = append(problems, fmt.Sprintf("%s: digest %.12s, want %.12s", k, have, want))
		}
	}
	for k := range got.Digests {
		if _, ok := ref.Digests[k]; !ok {
			problems = append(problems, fmt.Sprintf("%s: unexpected output", k))
		}
	}
	if ref.Figure5a != "" || got.Figure5a != "" {
		n, err := compareFigure5a(ref.Figure5a, got.Figure5a)
		if err != nil {
			problems = append(problems, err.Error())
		}
		unstable = n
	}
	return unstable, problems
}

// of selects one workload's share of the outputs.
func (g *outputs) of(workload string) outputs {
	o := outputs{Digests: map[string]string{}}
	for k, v := range g.Digests {
		if strings.HasPrefix(k, workload+"/") {
			o.Digests[k] = v
		}
	}
	if workload == "export-csv" {
		o.Figure5a = g.Figure5a
	}
	return o
}
