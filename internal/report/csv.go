package report

import (
	"io"
	"runtime"
	"sync"
	"sync/atomic"

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

// figure2ChunkRows is how many characterization rows one worker of
// Figure2CSV formats at a time, about 220 KB of CSV.
const figure2ChunkRows = 4096

// figure2RowBytes bounds a typical Figure 2 row, which sizes the chunk
// buffers so they rarely grow.
const figure2RowBytes = 64

// figure2Bufs keeps chunk buffers between Figure2CSV calls: a report
// writes one scatter per benchmark, and fresh buffers for each would be
// about 1 MB of garbage a call.
var figure2Bufs = sync.Pool{New: func() any { return make([]byte, 0, figure2ChunkRows*figure2RowBytes) }}

// Figure2CSV writes the full exhaustive characterization scatter:
// index,delay_s,power_w,depth_fo4,width,l2_kb. One row per design
// (262,500 rows), suitable for recreating the paper's scatter plot.
//
// GOMAXPROCS workers format fixed chunks of rows into reused buffers,
// and the calling goroutine writes the chunks in index order, so the
// bytes do not depend on the worker count or the schedule. At most two
// buffers per worker are in flight: a worker takes a free buffer before
// it claims the next chunk, and the writer frees each buffer once the
// chunk is written. After a write error the workers claim no further
// chunk; Figure2CSV returns the error once every worker has exited.
func Figure2CSV(w io.Writer, space *arch.Space, res *paretostudy.Result) error {
	c := newCSVWriter(w)
	c.strs("index", "delay_s", "power_w", "depth_fo4", "width", "l2_kb")
	checkSize(space, res)
	preds := res.Characterization
	cols := figure2Columns{
		depth: newAxisColumn(space, arch.AxisDepth, func(c arch.Config) int { return c.DepthFO4 }),
		width: newAxisColumn(space, arch.AxisWidth, func(c arch.Config) int { return c.Width }),
		l2:    newAxisColumn(space, arch.AxisL2, func(c arch.Config) int { return c.L2KB }),
	}

	chunks := (len(preds) + figure2ChunkRows - 1) / figure2ChunkRows
	workers := min(runtime.GOMAXPROCS(0), chunks)
	inflight := 2 * workers
	free := make(chan []byte, inflight)
	for range inflight {
		free <- figure2Bufs.Get().([]byte)
	}
	// Chunk k is handed over in ready[k%inflight]. A worker holds a
	// buffer from before it claims chunk k until the writer has written
	// it, so chunk k+inflight cannot be claimed while chunk k waits in
	// its slot, and no send blocks.
	ready := make([]chan []byte, inflight)
	for i := range ready {
		ready[i] = make(chan []byte, 1)
	}
	var next atomic.Int64 // the next chunk to claim
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for buf := range free {
				k := int(next.Add(1)) - 1
				if k >= chunks {
					figure2Bufs.Put(buf[:0])
					return
				}
				lo := k * figure2ChunkRows
				hi := min(lo+figure2ChunkRows, len(preds))
				ready[k%inflight] <- cols.appendRows(buf[:0], lo, preds[lo:hi])
			}
		}()
	}
	for k := 0; k < chunks && c.err == nil; k++ {
		buf := <-ready[k%inflight]
		c.write(buf)
		free <- buf
	}
	// After an error no chunk is left to claim, and a worker waiting
	// for a buffer finds the free list closed.
	next.Store(int64(chunks))
	close(free)
	wg.Wait()
	for buf := range free {
		figure2Bufs.Put(buf[:0])
	}
	return c.Flush()
}

// figure2Columns decodes a Figure 2 row's design columns from its index.
type figure2Columns struct{ depth, width, l2 axisColumn }

// appendRows appends the CSV rows of the valid predictions to dst;
// preds[i] is the design at flat index first+i.
func (f *figure2Columns) appendRows(dst []byte, first int, preds []core.Prediction) []byte {
	for i, p := range preds {
		if p.BIPS <= 0 || p.Watts <= 0 {
			continue
		}
		idx := first + i
		dst = appendIntCell(dst, idx)
		dst = appendFloatCell(dst, metrics.Delay(p.BIPS))
		dst = appendFloatCell(dst, p.Watts)
		dst = appendIntCell(dst, f.depth.value(idx))
		dst = appendIntCell(dst, f.width.value(idx))
		dst = appendIntCell(dst, f.l2.value(idx))
		dst[len(dst)-1] = '\n'
	}
	return dst
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
