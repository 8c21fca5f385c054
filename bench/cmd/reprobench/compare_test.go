package main

import (
	"testing"
)

func metricOf(better string, values ...float64) metricRecord {
	return metricRecord{
		metricDef: metricDef{Name: "m", Unit: "ms", Better: better},
		Values:    values,
		Median:    quantile(values, 0.5),
		Q1:        quantile(values, 0.25),
		Q3:        quantile(values, 0.75),
	}
}

func TestVerdict(t *testing.T) {
	for _, tc := range []struct {
		name         string
		base, change metricRecord
		bound        float64
		want         string
	}{
		{"steady and within bound", metricOf("lower", 100, 101, 102), metricOf("lower", 103, 104, 104), 0.05, "unchanged"},
		{"steady and beyond bound", metricOf("lower", 100, 101, 102), metricOf("lower", 110, 111, 112), 0.05, "worse"},
		{"noisier than the bound", metricOf("lower", 80, 100, 130), metricOf("lower", 110, 112, 140), 0.05, "unresolved"},
		{"noisy but every change run worse", metricOf("lower", 80, 100, 130), metricOf("lower", 140, 150, 160), 0.05, "worse"},
		{"every pair better beyond the spread", metricOf("lower", 100, 101, 102), metricOf("lower", 90, 91, 92), 0.05, "better"},
		{"higher is better", metricOf("higher", 100, 101, 102), metricOf("higher", 80, 81, 82), 0.05, "worse"},
		{"one run cannot show a gain", metricOf("lower", 100), metricOf("lower", 50), 0.05, "unchanged"},
	} {
		if got, _ := verdict(tc.base, tc.change, tc.bound); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}
