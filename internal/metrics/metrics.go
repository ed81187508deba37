// Package metrics provides the lightweight instrumentation the benchmark
// harness reports: latency histograms (per-touch response times), counters
// and labeled series that print as the rows/curves of the paper's figures.
package metrics

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strings"
	"time"
)

// Histogram buckets durations in powers of two from 1µs to ~1m, plus
// under/overflow buckets, and tracks exact sum/count/min/max.
type Histogram struct {
	buckets [28]int64
	count   int64
	sum     time.Duration
	min     time.Duration
	max     time.Duration
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h.count == 0 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.count++
	h.sum += d
	h.buckets[bucketFor(d)]++
}

// bucketFor maps d to its power-of-two microsecond bucket: 0 below 1µs,
// then k+1 for [2^k, 2^(k+1)) µs, clamped to the last bucket.
func bucketFor(d time.Duration) int {
	if d < time.Microsecond {
		return 0
	}
	return min(bits.Len64(uint64(d/time.Microsecond)), len(Histogram{}.buckets)-1)
}

// Count reports observations.
func (h *Histogram) Count() int64 { return h.count }

// Mean reports the average duration (0 with no observations).
func (h *Histogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Quantile approximates the q-quantile (0 < q <= 1) from the buckets,
// returning the upper bound of the bucket containing the quantile.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(h.count)))
	if target < 1 {
		target = 1
	}
	if target > h.count {
		target = h.count
	}
	var cum int64
	for i, c := range h.buckets {
		cum += c
		if cum >= target {
			if i == 0 {
				return time.Microsecond
			}
			return time.Duration(float64(time.Microsecond) * math.Pow(2, float64(i)))
		}
	}
	return h.max
}

// String summarizes the distribution.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v min=%v max=%v",
		h.count, h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.min, h.max)
}

// Point is one (x, y) observation of a series.
type Point struct {
	X float64
	Y float64
}

// Series is a labeled sequence of points — one curve of a figure.
type Series struct {
	Name   string
	XLabel string
	YLabel string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(x, y float64) { s.Points = append(s.Points, Point{X: x, Y: y}) }

// Fprint renders the series as an aligned two-column table.
func (s *Series) Fprint(w io.Writer) {
	fmt.Fprintf(w, "# %s\n", s.Name)
	x, y := s.XLabel, s.YLabel
	if x == "" {
		x = "x"
	}
	if y == "" {
		y = "y"
	}
	fmt.Fprintf(w, "%-24s %-16s\n", x, y)
	for _, p := range s.Points {
		fmt.Fprintf(w, "%-24.4g %-16.4g\n", p.X, p.Y)
	}
}

// Table accumulates rows for aligned text output (benchmark tables).
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, hdr := range t.Header {
		widths[i] = len(hdr)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			if i < len(widths) {
				parts[i] = pad(cell, widths[i])
			} else {
				parts[i] = cell
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Counters is a named counter set with deterministic printing order.
type Counters struct {
	values map[string]int64
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters { return &Counters{values: make(map[string]int64)} }

// Add increments name by delta.
func (c *Counters) Add(name string, delta int64) { c.values[name] += delta }

// Get reads a counter.
func (c *Counters) Get(name string) int64 { return c.values[name] }

// Names returns counter names sorted.
func (c *Counters) Names() []string {
	names := make([]string, 0, len(c.values))
	for n := range c.values {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
