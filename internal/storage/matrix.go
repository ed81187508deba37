package storage

import (
	"fmt"
	"math"
)

// Layout identifies the physical order of a Matrix.
type Layout uint8

// Physical layouts. The paper's rotate gesture (§2.8) switches between the
// two: rotating a row-oriented table projects all attributes into
// individual dense arrays, and vice versa.
const (
	ColumnMajor Layout = iota
	RowMajor
)

// String names the layout.
func (l Layout) String() string {
	if l == RowMajor {
		return "row-major"
	}
	return "column-major"
}

// ColumnMeta describes one attribute of a Matrix.
type ColumnMeta struct {
	Name string
	Type Type
}

// Matrix is the paper's storage unit: a dense matrix of fixed-width fields,
// one or more columns wide, associated with one visual data object.
//
// Column-major matrixes store one *Column per attribute. Row-major
// matrixes store a single interleaved slab of 64-bit words with
// stride = number of attributes; string attributes keep a per-column
// dictionary so every cell stays fixed width.
type Matrix struct {
	name   string
	layout Layout
	schema []ColumnMeta

	// column-major representation
	cols []*Column

	// row-major representation
	slab  []uint64
	dicts []*Dictionary // indexed by column; nil for non-string columns
	rows  int
}

// NewMatrix builds a column-major matrix from columns. All columns must
// have equal length.
func NewMatrix(name string, cols ...*Column) (*Matrix, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("storage: matrix %q needs at least one column", name)
	}
	n := cols[0].Len()
	schema := make([]ColumnMeta, len(cols))
	for i, c := range cols {
		if c.Len() != n {
			return nil, fmt.Errorf("storage: matrix %q column %q has %d rows, want %d", name, c.Name(), c.Len(), n)
		}
		schema[i] = ColumnMeta{Name: c.Name(), Type: c.Type()}
	}
	return &Matrix{name: name, layout: ColumnMajor, schema: schema, cols: cols, rows: n}, nil
}

// NewRowMajorMatrix builds an empty row-major matrix with the given schema.
func NewRowMajorMatrix(name string, schema []ColumnMeta) *Matrix {
	m := &Matrix{name: name, layout: RowMajor, schema: append([]ColumnMeta(nil), schema...)}
	m.dicts = make([]*Dictionary, len(schema))
	for i, cm := range schema {
		if cm.Type == String {
			m.dicts[i] = NewDictionary()
		}
	}
	return m
}

// Name reports the matrix name.
func (m *Matrix) Name() string { return m.name }

// Layout reports the current physical layout.
func (m *Matrix) Layout() Layout { return m.layout }

// Schema returns the attribute descriptors (shared; do not mutate).
func (m *Matrix) Schema() []ColumnMeta { return m.schema }

// NumRows reports the tuple count.
func (m *Matrix) NumRows() int { return m.rows }

// NumCols reports the attribute count.
func (m *Matrix) NumCols() int { return len(m.schema) }

// ColumnIndex resolves an attribute name to its position, or -1.
func (m *Matrix) ColumnIndex(name string) int {
	for i, cm := range m.schema {
		if cm.Name == name {
			return i
		}
	}
	return -1
}

// Column returns the col-th column of a column-major matrix. For row-major
// matrixes it returns an error: positional column access there requires a
// gather (see GatherColumn) or a layout conversion.
func (m *Matrix) Column(col int) (*Column, error) {
	if col < 0 || col >= len(m.schema) {
		return nil, fmt.Errorf("storage: matrix %q has no column %d", m.name, col)
	}
	if m.layout != ColumnMajor {
		return nil, fmt.Errorf("storage: matrix %q is row-major; convert layout or gather column %d", m.name, col)
	}
	return m.cols[col], nil
}

// At returns the cell at (row, col) regardless of layout.
func (m *Matrix) At(row, col int) (Value, error) {
	if row < 0 || row >= m.rows || col < 0 || col >= len(m.schema) {
		return Value{}, fmt.Errorf("storage: cell (%d,%d) out of range in matrix %q (%dx%d)", row, col, m.name, m.rows, len(m.schema))
	}
	if m.layout == ColumnMajor {
		return m.cols[col].Value(row), nil
	}
	w := m.slab[row*len(m.schema)+col]
	return valueFromWord(w, m.schema[col].Type, m.dicts[col]), nil
}

// Float returns the float coercion of cell (row, col) without Value
// boxing — the span-execution hot path. String cells coerce to their
// dictionary code (matching Column.Float); out-of-range coordinates
// return 0.
func (m *Matrix) Float(row, col int) float64 {
	if row < 0 || row >= m.rows || col < 0 || col >= len(m.schema) {
		return 0
	}
	if m.layout == ColumnMajor {
		return m.cols[col].Float(row)
	}
	w := m.slab[row*len(m.schema)+col]
	if m.schema[col].Type == Float64 {
		return math.Float64frombits(w)
	}
	// Int64 words round-trip through their two's-complement bits; bool
	// and dictionary-code words are small non-negative integers.
	return float64(int64(w))
}

// Row materializes tuple row as a slice of values.
func (m *Matrix) Row(row int) ([]Value, error) {
	if row < 0 || row >= m.rows {
		return nil, fmt.Errorf("storage: row %d out of range in matrix %q of %d rows", row, m.name, m.rows)
	}
	out := make([]Value, len(m.schema))
	for c := range m.schema {
		v, err := m.At(row, c)
		if err != nil {
			return nil, err
		}
		out[c] = v
	}
	return out, nil
}

// AppendRow adds a tuple. The value count must match the schema width.
func (m *Matrix) AppendRow(vals []Value) error {
	if len(vals) != len(m.schema) {
		return fmt.Errorf("storage: appending %d values to matrix %q with %d columns", len(vals), m.name, len(m.schema))
	}
	if m.layout == ColumnMajor {
		if m.cols == nil {
			m.cols = make([]*Column, len(m.schema))
			for i, cm := range m.schema {
				m.cols[i] = NewEmptyColumn(cm.Name, cm.Type)
			}
		}
		for i, v := range vals {
			m.cols[i].Append(v)
		}
	} else {
		for i, v := range vals {
			m.slab = append(m.slab, v.word(m.dicts[i]))
		}
	}
	m.rows++
	return nil
}

// GatherColumn materializes attribute col of a row-major matrix over the
// row range [lo, hi) as a fresh Column. For column-major matrixes it
// slices the existing column.
func (m *Matrix) GatherColumn(col, lo, hi int) (*Column, error) {
	if col < 0 || col >= len(m.schema) {
		return nil, fmt.Errorf("storage: matrix %q has no column %d", m.name, col)
	}
	if lo < 0 || hi > m.rows || lo > hi {
		return nil, fmt.Errorf("storage: range [%d,%d) out of bounds for matrix %q of %d rows", lo, hi, m.name, m.rows)
	}
	if m.layout == ColumnMajor {
		return m.cols[col].Slice(lo, hi)
	}
	cm := m.schema[col]
	out := NewEmptyColumn(cm.Name, cm.Type)
	stride := len(m.schema)
	for r := lo; r < hi; r++ {
		w := m.slab[r*stride+col]
		out.Append(valueFromWord(w, cm.Type, m.dicts[col]))
	}
	return out, nil
}

// ConvertRange copies rows [lo, hi) of m into dst, which must share m's
// schema but may use the opposite layout. It is the chunked primitive the
// incremental rotate gesture is built on (paper §2.8: "changing the layout
// can be done in steps").
func (m *Matrix) ConvertRange(dst *Matrix, lo, hi int) error {
	if len(dst.schema) != len(m.schema) {
		return fmt.Errorf("storage: convert between mismatched schemas (%d vs %d columns)", len(m.schema), len(dst.schema))
	}
	if lo < 0 || hi > m.rows || lo > hi {
		return fmt.Errorf("storage: convert range [%d,%d) out of bounds for %d rows", lo, hi, m.rows)
	}
	buf := make([]Value, len(m.schema))
	for r := lo; r < hi; r++ {
		for c := range m.schema {
			v, err := m.At(r, c)
			if err != nil {
				return err
			}
			buf[c] = v
		}
		if err := dst.AppendRow(buf); err != nil {
			return err
		}
	}
	return nil
}

// ToLayout returns a full copy of m in the requested layout. If m already
// uses that layout, m itself is returned.
func (m *Matrix) ToLayout(l Layout) (*Matrix, error) {
	if m.layout == l {
		return m, nil
	}
	var dst *Matrix
	if l == RowMajor {
		dst = NewRowMajorMatrix(m.name, m.schema)
	} else {
		cols := make([]*Column, len(m.schema))
		for i, cm := range m.schema {
			cols[i] = NewEmptyColumn(cm.Name, cm.Type)
		}
		dst = &Matrix{name: m.name, layout: ColumnMajor, schema: append([]ColumnMeta(nil), m.schema...), cols: cols}
	}
	if err := m.ConvertRange(dst, 0, m.rows); err != nil {
		return nil, err
	}
	return dst, nil
}

// Project returns a new single-column column-major matrix containing a
// copy of attribute col — the drag-a-column-out-of-a-table gesture
// (paper §2.8).
func (m *Matrix) Project(col int) (*Matrix, error) {
	c, err := m.GatherColumn(col, 0, m.rows)
	if err != nil {
		return nil, err
	}
	out := c.Clone()
	return NewMatrix(m.name+"."+out.Name(), out)
}
