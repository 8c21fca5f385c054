// Package report renders the paper's tables and figures as aligned text
// tables, ASCII boxplots, and CSV series. Every artifact of the paper's
// evaluation (Tables 1-4, Figures 1-9) has a formatter here; cmd/dse and
// the benchmark harness use them to regenerate the paper's outputs.
package report

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/stats"
)

// Table is an aligned text table.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable starts a table with the given column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row; missing cells render empty, extra cells panic.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.headers) {
		panic(fmt.Sprintf("report: row has %d cells for %d columns", len(cells), len(t.headers)))
	}
	row := make([]string, len(t.headers))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "%s\n", t.title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// csvWriter streams comma-separated rows through a 64 KiB buffer. Each
// row is assembled in one reused byte slice and handed to the buffer
// whole, so a row costs no allocation and the destination sees one write
// per buffer fill. Cells containing commas, quotes or newlines are
// quoted; floats format as %g. The first write error sticks: later rows
// are dropped and Flush returns it.
type csvWriter struct {
	w   *bufio.Writer
	row []byte
	err error
}

// newCSVWriter buffers w, reusing it when it is already a *bufio.Writer.
func newCSVWriter(w io.Writer) *csvWriter {
	bw, ok := w.(*bufio.Writer)
	if !ok {
		bw = bufio.NewWriterSize(w, 64<<10)
	}
	return &csvWriter{w: bw, row: make([]byte, 0, 256)}
}

// str appends a string cell, quoting it when it holds a comma, quote or
// newline.
func (c *csvWriter) str(s string) {
	if strings.ContainsAny(s, ",\"\n") {
		s = "\"" + strings.ReplaceAll(s, "\"", "\"\"") + "\""
	}
	c.row = append(c.row, s...)
	c.row = append(c.row, ',')
}

func (c *csvWriter) int(v int) { c.row = appendIntCell(c.row, v) }

// float appends v exactly as fmt's %g formats it.
func (c *csvWriter) float(v float64) { c.row = appendFloatCell(c.row, v) }

// appendIntCell appends v and its separator to dst.
func appendIntCell(dst []byte, v int) []byte {
	dst = strconv.AppendInt(dst, int64(v), 10)
	return append(dst, ',')
}

// appendFloatCell appends v, formatted as fmt's %g, and its separator
// to dst.
func appendFloatCell(dst []byte, v float64) []byte {
	dst = strconv.AppendFloat(dst, v, 'g', -1, 64)
	return append(dst, ',')
}

// strs writes a whole row of string cells, such as a header.
func (c *csvWriter) strs(cells ...string) {
	for _, s := range cells {
		c.str(s)
	}
	c.endRow()
}

// endRow terminates the row and hands it to the buffer. Every cell ends
// in its separator, so the last one becomes the newline.
func (c *csvWriter) endRow() {
	if n := len(c.row); n > 0 {
		c.row[n-1] = '\n'
	} else {
		c.row = append(c.row, '\n')
	}
	if c.err == nil {
		_, c.err = c.w.Write(c.row)
	}
	c.row = c.row[:0]
}

// write hands whole rows, each ending in its newline, to the buffer.
func (c *csvWriter) write(rows []byte) {
	if c.err == nil {
		_, c.err = c.w.Write(rows)
	}
}

// Flush writes out the buffer and returns the first error the writer
// met.
func (c *csvWriter) Flush() error {
	if c.err == nil {
		c.err = c.w.Flush()
	}
	return c.err
}

// RenderBoxplot draws a boxplot as a one-line ASCII gauge over [lo, hi]:
//
//	|---[==M==]------|        o
//
// with whiskers (|), the interquartile box ([ ]), the median (M) and
// outliers (o). Values outside [lo, hi] clamp to the edges. width is the
// number of character cells; values below 10 are raised to 10.
func RenderBoxplot(b stats.Boxplot, lo, hi float64, width int) string {
	if width < 10 {
		width = 10
	}
	if hi <= lo {
		hi = lo + 1
	}
	cells := make([]byte, width)
	for i := range cells {
		cells[i] = ' '
	}
	pos := func(v float64) int {
		f := (v - lo) / (hi - lo)
		if f < 0 {
			f = 0
		}
		if f > 1 {
			f = 1
		}
		p := int(math.Round(f * float64(width-1)))
		return p
	}
	// Whisker span.
	loW, hiW := pos(b.LoWhisker), pos(b.HiWhisker)
	for i := loW; i <= hiW; i++ {
		cells[i] = '-'
	}
	cells[loW] = '|'
	cells[hiW] = '|'
	// Box.
	q1, q3 := pos(b.Q1), pos(b.Q3)
	for i := q1; i <= q3; i++ {
		cells[i] = '='
	}
	cells[q1] = '['
	cells[q3] = ']'
	// Median and outliers last so they stay visible.
	for _, o := range b.Outliers {
		cells[pos(o)] = 'o'
	}
	cells[pos(b.Med)] = 'M'
	return string(cells)
}

// Pct formats a ratio as a signed percentage with one decimal.
func Pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

// KB formats a kilobyte capacity, switching to MB when appropriate
// (matching the paper's table conventions).
func KB(kb int) string {
	if kb >= 1024 {
		return fmt.Sprintf("%gMB", float64(kb)/1024)
	}
	return fmt.Sprintf("%dKB", kb)
}
