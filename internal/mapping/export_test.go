package mapping

import "fmt"

// The Rule of Three in its plain form (RowAt applies it on the
// digitizer's position grid), the addressable-tuple bound and the
// configuration check. No production code calls them; the tests pin the
// package's §2.4 and §2.5 arithmetic with them.

// TupleID applies the Rule of Three: the relative location t within object
// extent o selects tuple id = n·t/o, clamped into [0, n).
func TupleID(t, o float64, n int) (int, error) {
	if n <= 0 {
		return 0, ErrEmptyObject
	}
	if o <= 0 {
		return 0, ErrDegenerateView
	}
	id := int(float64(n) * t / o)
	if id < 0 {
		id = 0
	}
	if id >= n {
		id = n - 1
	}
	return id, nil
}

// AddressableTuples reports how many distinct tuples a slide over the full
// extent can touch: bounded both by the tuple count and by the physical
// position count.
func (m ObjectMap) AddressableTuples(extent float64) int {
	p := m.Positions(extent)
	rows := m.effectiveRows()
	if p < rows {
		return p
	}
	return rows
}

func (m ObjectMap) effectiveRows() int {
	g := m.Granularity
	if g <= 1 {
		return m.Rows
	}
	return (m.Rows + g - 1) / g
}

// Validate reports configuration errors up front.
func (m ObjectMap) Validate() error {
	if m.Rows < 0 || m.Cols < 0 {
		return fmt.Errorf("mapping: negative dimensions %dx%d", m.Rows, m.Cols)
	}
	if m.Granularity < 0 {
		return fmt.Errorf("mapping: negative granularity %d", m.Granularity)
	}
	return nil
}
