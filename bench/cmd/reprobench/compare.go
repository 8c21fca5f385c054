package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// benchmarkSpec is the part of BENCHMARK.json the comparator reads: each
// end-to-end metric's bound, the share of the base median by which it
// may worsen before a change counts as a regression.
type benchmarkSpec struct {
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readRecord(path string) (*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	return &r, nil
}

// compareRecords prints one row per workload with a verdict for every
// end-to-end metric of the base record.
func compareRecords(w io.Writer, root, basePath, changePath string) error {
	base, err := readRecord(basePath)
	if err != nil {
		return err
	}
	change, err := readRecord(changePath)
	if err != nil {
		return err
	}
	switch {
	case base.NumCPU != change.NumCPU:
		return fmt.Errorf("refusing to compare: num_cpu %d vs %d", base.NumCPU, change.NumCPU)
	case base.Seed != change.Seed:
		return fmt.Errorf("refusing to compare: seed %d vs %d", base.Seed, change.Seed)
	case base.Traced || change.Traced:
		return errors.New("refusing to compare: traced runs carry per-layer metrics, which have no bounds")
	case base.Smoke != change.Smoke || base.Seconds != change.Seconds:
		return errors.New("refusing to compare: runs used different budgets or run lengths")
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("decoding BENCHMARK.json: %w", err)
	}
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}

	fmt.Fprintf(w, "%-16s", "workload")
	for _, d := range endToEnd {
		fmt.Fprintf(w, " %-24s", d.Name)
	}
	fmt.Fprintln(w)
	for _, bw := range base.Workloads {
		var cw *workloadRecord
		for i := range change.Workloads {
			if change.Workloads[i].Name == bw.Name {
				cw = &change.Workloads[i]
			}
		}
		fmt.Fprintf(w, "%-16s", bw.Name)
		if cw == nil {
			fmt.Fprintln(w, " missing from the change's record")
			continue
		}
		for _, d := range endToEnd {
			bm, ok1 := bw.metric(d.Name)
			cm, ok2 := cw.metric(d.Name)
			bound, ok3 := bounds[d.Name]
			cell := "missing"
			if ok1 && ok2 && ok3 {
				v, rel := verdict(bm, cm, bound)
				cell = fmt.Sprintf("%s %+.1f%%", v, 100*rel)
			}
			fmt.Fprintf(w, " %-24s", cell)
		}
		if !cw.Correct {
			fmt.Fprint(w, " (change INCORRECT)")
		}
		fmt.Fprintln(w)
	}
	return nil
}

// verdict judges one metric. rel is the change's median against the
// base's, signed so that positive is worse. The metric is:
//   - worse when rel exceeds the bound and either the base's own spread
//     (interquartile range over median) is within the bound or every
//     change run reads worse than every base run;
//   - unresolved when the spread is wider than the bound and not every
//     change run reads better than every base run;
//   - better when the medians differ by more than the base's spread in
//     the change's favour and the change wins at least nine tenths of
//     at least three paired runs;
//   - unchanged otherwise.
func verdict(base, change metricRecord, bound float64) (string, float64) {
	sign := 1.0
	if base.Better == "higher" {
		sign = -1
	}
	if base.Median == 0 {
		return "unresolved", 0
	}
	rel := sign * (change.Median - base.Median) / math.Abs(base.Median)
	spread := (base.Q3 - base.Q1) / math.Abs(base.Median)
	allWorse, allBetter := true, true
	for _, b := range base.Values {
		for _, c := range change.Values {
			d := sign * (c - b)
			allWorse = allWorse && d > 0
			allBetter = allBetter && d < 0
		}
	}
	wins, pairs := 0, 0
	for i := 0; i < len(base.Values) && i < len(change.Values); i++ {
		pairs++
		if sign*(change.Values[i]-base.Values[i]) < 0 {
			wins++
		}
	}
	switch {
	case rel > bound && (spread <= bound || allWorse):
		return "worse", rel
	case spread > bound && !allBetter:
		return "unresolved", rel
	case -rel > spread && pairs >= 3 && float64(wins) >= 0.9*float64(pairs):
		return "better", rel
	default:
		return "unchanged", rel
	}
}
