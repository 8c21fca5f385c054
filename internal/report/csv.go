package report

import (
	"io"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/core/depthstudy"
	"repro/internal/core/heterostudy"
	"repro/internal/core/paretostudy"
	"repro/internal/metrics"
)

// The CSV emitters in this file serialize each figure's underlying data
// series so the paper's plots can be regenerated with any plotting tool.
// Each streams its rows through a csvWriter, so callers may pass an
// unbuffered file.

// Figure1CSV writes one row per validation observation:
// benchmark,metric,error.
func Figure1CSV(w io.Writer, rep *core.ValidationReport) error {
	c := newCSVWriter(w)
	c.strs("benchmark", "metric", "relative_error")
	for _, be := range rep.PerBenchmark {
		for _, v := range be.Perf {
			c.str(be.Benchmark)
			c.str("performance")
			c.float(v)
			c.endRow()
		}
		for _, v := range be.Power {
			c.str(be.Benchmark)
			c.str("power")
			c.float(v)
			c.endRow()
		}
	}
	return c.Flush()
}

// Figure2CSV writes the full exhaustive characterization scatter:
// index,delay_s,power_w,depth_fo4,width. One row per design (262,500
// rows), suitable for recreating the paper's scatter plot.
func Figure2CSV(w io.Writer, space *arch.Space, res *paretostudy.Result) error {
	c := newCSVWriter(w)
	c.strs("index", "delay_s", "power_w", "depth_fo4", "width", "l2_kb")
	for _, p := range res.Characterization {
		if p.BIPS <= 0 || p.Watts <= 0 {
			continue
		}
		cfg := space.Config(space.PointAt(p.Index))
		c.int(p.Index)
		c.float(metrics.Delay(p.BIPS))
		c.float(p.Watts)
		c.int(cfg.DepthFO4)
		c.int(cfg.Width)
		c.int(cfg.L2KB)
		c.endRow()
	}
	return c.Flush()
}

// Figure3CSV writes the frontier: model and simulated coordinates.
func Figure3CSV(w io.Writer, res *paretostudy.Result) error {
	c := newCSVWriter(w)
	c.strs("index", "model_delay_s", "model_power_w", "sim_delay_s", "sim_power_w")
	for _, fp := range res.Frontier {
		c.int(fp.Index)
		c.float(fp.ModelDelay)
		c.float(fp.ModelPower)
		c.float(fp.SimDelay)
		c.float(fp.SimPower)
		c.endRow()
	}
	return c.Flush()
}

// Figure5aCSV writes the depth-efficiency series: one row per depth with
// the original line and the enhanced distribution's quartiles.
func Figure5aCSV(w io.Writer, avg *depthstudy.SuiteAverage) error {
	c := newCSVWriter(w)
	c.strs("depth_fo4", "original_rel", "q1", "median", "q3", "max", "bound_rel", "frac_beats_baseline")
	for i, d := range avg.Depths {
		c.int(d)
		c.float(avg.OriginalRel[i])
		c.float(avg.Q1Rel[i])
		c.float(avg.MedianRel[i])
		c.float(avg.Q3Rel[i])
		c.float(avg.MaxRel[i])
		c.float(avg.BoundRel[i])
		c.float(avg.FracBeatsBaseline[i])
		c.endRow()
	}
	return c.Flush()
}

// Figure9CSV writes per-benchmark gains by cluster count.
func Figure9CSV(w io.Writer, res *heterostudy.Result, benches []string) error {
	c := newCSVWriter(w)
	c.strs(append([]string{"clusters", "avg_model_gain", "avg_sim_gain"}, benches...)...)
	// Zero clusters is the baseline: every gain is 1.
	c.int(0)
	c.int(1)
	c.int(1)
	for range benches {
		c.int(1)
	}
	c.endRow()
	for _, lvl := range res.Levels {
		c.int(lvl.K)
		c.float(lvl.AvgModelGain)
		c.float(lvl.AvgSimGain)
		for _, b := range benches {
			c.float(lvl.ModelGain[b])
		}
		c.endRow()
	}
	return c.Flush()
}

// Table2CSV writes the per-benchmark optima.
func Table2CSV(w io.Writer, results map[string]*paretostudy.Result) error {
	c := newCSVWriter(w)
	c.strs("benchmark", "depth_fo4", "width", "gpr", "resv_br", "il1_kb", "dl1_kb", "l2_kb",
		"model_delay_s", "delay_err", "model_power_w", "power_err")
	for _, bench := range sortedKeys(results) {
		o := results[bench].Best
		cfg := o.Config
		c.str(bench)
		c.int(cfg.DepthFO4)
		c.int(cfg.Width)
		c.int(cfg.GPR)
		c.int(cfg.ResvBR)
		c.int(cfg.IL1KB)
		c.int(cfg.DL1KB)
		c.int(cfg.L2KB)
		c.float(o.ModelDelay)
		c.float(o.DelayErr)
		c.float(o.ModelPower)
		c.float(o.PowerErr)
		c.endRow()
	}
	return c.Flush()
}
