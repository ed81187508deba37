// Package layout implements the rotate gesture's physical-design change
// (paper §2.8 "Schema and Storage Layout Gestures"): rotating a
// row-oriented table converts it to a column-store structure and vice
// versa. Because a full conversion copies all data, the change runs in
// steps — and, for large objects, converts a sample first so the user gets
// "a quick response and new data object(s) to query" while the rest
// converts in the background (during idle windows).
package layout

import (
	"fmt"
	"time"

	"dbtouch/internal/storage"
	"dbtouch/internal/vclock"
)

// CostPerRow is the virtual copy cost per tuple moved between layouts
// (read + re-encode + write of a fixed-width row).
const CostPerRow = 200 * time.Nanosecond

// Conversion is an in-progress incremental layout change.
type Conversion struct {
	src   *storage.Matrix
	dst   *storage.Matrix
	clock *vclock.Clock
	// next is the first unconverted row.
	next int
	// chunk is the number of rows converted per Step.
	chunk int
}

// Target layout is the opposite of src's. chunk <= 0 selects 4096 rows
// per step.
func NewConversion(src *storage.Matrix, clock *vclock.Clock, chunk int) (*Conversion, error) {
	if src == nil {
		return nil, fmt.Errorf("layout: nil source matrix")
	}
	if chunk <= 0 {
		chunk = 4096
	}
	var dst *storage.Matrix
	if src.Layout() == storage.RowMajor {
		cols := make([]*storage.Column, src.NumCols())
		for i, cm := range src.Schema() {
			cols[i] = storage.NewEmptyColumn(cm.Name, cm.Type)
		}
		m, err := emptyColumnMajor(src.Name(), cols)
		if err != nil {
			return nil, err
		}
		dst = m
	} else {
		dst = storage.NewRowMajorMatrix(src.Name(), src.Schema())
	}
	return &Conversion{src: src, dst: dst, clock: clock, chunk: chunk}, nil
}

// emptyColumnMajor builds a zero-row column-major matrix with the given
// empty columns. storage.NewMatrix validates equal lengths, which all-zero
// satisfies.
func emptyColumnMajor(name string, cols []*storage.Column) (*storage.Matrix, error) {
	return storage.NewMatrix(name, cols...)
}

// Result returns the destination matrix (complete only when Done).
func (c *Conversion) Result() *storage.Matrix { return c.dst }

// Done reports whether all rows have been converted.
func (c *Conversion) Done() bool { return c.next >= c.src.NumRows() }

// Progress reports the fraction of rows converted in [0, 1].
func (c *Conversion) Progress() float64 {
	if c.src.NumRows() == 0 {
		return 1
	}
	return float64(c.next) / float64(c.src.NumRows())
}

// Step converts the next chunk of rows, charging copy cost to the clock,
// and reports whether the conversion is now done.
func (c *Conversion) Step() (bool, error) {
	if c.Done() {
		return true, nil
	}
	hi := c.next + c.chunk
	if hi > c.src.NumRows() {
		hi = c.src.NumRows()
	}
	if err := c.src.ConvertRange(c.dst, c.next, hi); err != nil {
		return false, err
	}
	if c.clock != nil {
		c.clock.Advance(time.Duration(hi-c.next) * CostPerRow)
	}
	c.next = hi
	return c.Done(), nil
}

// Run drives Step until done.
func (c *Conversion) Run() error {
	for !c.Done() {
		if _, err := c.Step(); err != nil {
			return err
		}
	}
	return nil
}

// RunFor drives Step while virtual time remains within budget; it returns
// the time actually consumed. Used to convert during idle windows.
func (c *Conversion) RunFor(budget time.Duration) (time.Duration, error) {
	if c.clock == nil {
		return 0, fmt.Errorf("layout: RunFor requires a clock")
	}
	start := c.clock.Now()
	for !c.Done() && c.clock.Now()-start < budget {
		if _, err := c.Step(); err != nil {
			return c.clock.Now() - start, err
		}
	}
	return c.clock.Now() - start, nil
}

// SampleFirst materializes a strided preview of the source in the target
// layout — the "create the new format for only a sample of the data"
// strategy. The preview has ceil(rows/stride) rows and is immediately
// queryable; the full conversion continues via Step.
func (c *Conversion) SampleFirst(stride int) (*storage.Matrix, error) {
	if stride <= 1 {
		return nil, fmt.Errorf("layout: sample stride must be > 1, got %d", stride)
	}
	var preview *storage.Matrix
	if c.dst.Layout() == storage.RowMajor {
		preview = storage.NewRowMajorMatrix(c.src.Name()+".preview", c.src.Schema())
	} else {
		cols := make([]*storage.Column, c.src.NumCols())
		for i, cm := range c.src.Schema() {
			cols[i] = storage.NewEmptyColumn(cm.Name, cm.Type)
		}
		m, err := emptyColumnMajor(c.src.Name()+".preview", cols)
		if err != nil {
			return nil, err
		}
		preview = m
	}
	rows := 0
	for r := 0; r < c.src.NumRows(); r += stride {
		vals, err := c.src.Row(r)
		if err != nil {
			return nil, err
		}
		if err := preview.AppendRow(vals); err != nil {
			return nil, err
		}
		rows++
	}
	if c.clock != nil {
		c.clock.Advance(time.Duration(rows) * CostPerRow)
	}
	return preview, nil
}
