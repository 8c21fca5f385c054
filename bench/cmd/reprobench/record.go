package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// record is one invocation's results: what ran where, and every metric
// of every workload as its per-repeat values, median and quartiles.
type record struct {
	NumCPU    int              `json:"num_cpu"`
	GoVersion string           `json:"go_version"`
	GitRev    string           `json:"git_rev"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Repeats   int              `json:"repeats"`
	Traced    bool             `json:"traced"`
	Smoke     bool             `json:"smoke"`
	Workloads []workloadRecord `json:"workloads"`
}

type workloadRecord struct {
	Name      string         `json:"name"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Correct   bool           `json:"correct"`
	Problems  []string       `json:"problems,omitempty"`
	Metrics   []metricRecord `json:"metrics"`
}

type metricRecord struct {
	metricDef
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

// summarize folds a workload's repeats into its record.
func summarize(name string, defs []metricDef, runs []*result) workloadRecord {
	wr := workloadRecord{Name: name, Correct: true}
	for _, r := range runs {
		wr.Attempted += r.attempted
		wr.Failed += r.failed
		wr.Problems = append(wr.Problems, r.problems...)
		wr.Correct = wr.Correct && r.correct()
	}
	for _, d := range defs {
		m := metricRecord{metricDef: d}
		for _, r := range runs {
			m.Values = append(m.Values, r.metrics[d.Name])
		}
		m.Median, m.Q1, m.Q3 = quantile(m.Values, 0.5), quantile(m.Values, 0.25), quantile(m.Values, 0.75)
		wr.Metrics = append(wr.Metrics, m)
	}
	return wr
}

// print writes the human-readable report.
func (r *record) print(w io.Writer) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "reprobench: seed %d, %gs per run, %d repeat(s), %s, num_cpu %d, %s, rev %s\n",
		r.Seed, r.Seconds, r.Repeats, mode, r.NumCPU, r.GoVersion, r.GitRev)
	for _, wr := range r.Workloads {
		status := "correct"
		if !wr.Correct {
			status = "INCORRECT"
		}
		fmt.Fprintf(w, "\n%s: attempted %d, failed %d, %s\n", wr.Name, wr.Attempted, wr.Failed, status)
		for _, p := range wr.Problems {
			fmt.Fprintf(w, "  problem: %s\n", p)
		}
		fmt.Fprintf(w, "  %-34s %14s %14s %14s  %s\n", "metric", "median", "q1", "q3", "unit")
		zero := 0
		for _, m := range wr.Metrics {
			if r.Traced && m.Q1 == 0 && m.Q3 == 0 {
				zero++ // a layer this workload does not enter
				continue
			}
			fmt.Fprintf(w, "  %-34s %14.6g %14.6g %14.6g  %s\n", m.Name, m.Median, m.Q1, m.Q3, m.Unit)
		}
		if zero > 0 {
			fmt.Fprintf(w, "  (%d metrics reading 0 not shown)\n", zero)
		}
	}
}

// printSummary writes the final line: one JSON object with the overall
// verdict and the median of each end-to-end metric, or of each
// per-layer metric when traced. With several workloads, metric names
// are prefixed with the workload's.
func (r *record) printSummary(w io.Writer) error {
	shown := map[string]bool{}
	for _, d := range endToEnd {
		shown[d.Name] = !r.Traced
	}
	for _, d := range perLayer {
		shown[d.Name] = r.Traced
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	sum := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, wr := range r.Workloads {
		sum.Correct = sum.Correct && wr.Correct
		sum.Attempted += wr.Attempted
		sum.Failed += wr.Failed
		for _, m := range wr.Metrics {
			if !shown[m.Name] {
				continue
			}
			name := m.Name
			if len(r.Workloads) > 1 {
				name = wr.Name + "/" + m.Name
			}
			sum.Metrics[name] = value{m.Median, m.Unit}
		}
	}
	data, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

func (wr workloadRecord) metric(name string) (metricRecord, bool) {
	for _, m := range wr.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metricRecord{}, false
}
