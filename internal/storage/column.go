package storage

import (
	"fmt"
	"slices"
	"sync"
)

// Column is a dense, fixed-width array of values of one type — the basic
// dbTouch data object backing store. Int and float columns store native
// slices; bool columns store bytes; string columns store dictionary codes.
//
// Sharing contract: loaded columns are immutable and may be read by any
// number of concurrent exploration sessions without locking — every read
// kernel (Value/Float, the span kernels, Strided/Slice) only looks
// at the backing slices. The lazily memoized predicate tables are the one
// piece of internal mutable state and are mutex-guarded. The mutator,
// Append, is reserved for single-owner use before a column is shared:
// loaders, builders, and layout conversions.
type Column struct {
	name  string
	typ   Type
	ints  []int64
	flts  []float64
	bools []byte
	codes []int32
	dict  *Dictionary

	// passMu guards passCache: concurrent sessions filtering the same
	// shared string column memoize into the same table map.
	passMu sync.Mutex
	// passCache memoizes FilterRange/FilterSel predicate-outcome tables
	// per (op, operand); see passByCode.
	passCache map[passKey][]bool
	// passUse/passTick order passCache entries by recency for LRU
	// eviction at maxPassTables.
	passUse  map[passKey]uint64
	passTick uint64
}

// NewIntColumn builds an INT column over vals (the slice is adopted, not
// copied).
func NewIntColumn(name string, vals []int64) *Column {
	return &Column{name: name, typ: Int64, ints: vals}
}

// NewFloatColumn builds a FLOAT column over vals (adopted, not copied).
func NewFloatColumn(name string, vals []float64) *Column {
	return &Column{name: name, typ: Float64, flts: vals}
}

// NewBoolColumn builds a BOOL column over vals.
func NewBoolColumn(name string, vals []bool) *Column {
	b := make([]byte, len(vals))
	for i, v := range vals {
		if v {
			b[i] = 1
		}
	}
	return &Column{name: name, typ: Bool, bools: b}
}

// NewStringColumn builds a dictionary-encoded STRING column over vals.
func NewStringColumn(name string, vals []string) *Column {
	d := NewDictionary()
	codes := make([]int32, len(vals))
	for i, v := range vals {
		codes[i] = d.Intern(v)
	}
	return &Column{name: name, typ: String, codes: codes, dict: d}
}

// NewEmptyColumn builds a zero-length column of the given type, ready for
// Append.
func NewEmptyColumn(name string, typ Type) *Column {
	c := &Column{name: name, typ: typ}
	if typ == String {
		c.dict = NewDictionary()
	}
	return c
}

// newSizedColumn builds an empty column with room for exactly n values,
// for a loader that knows its row count. The room is written once, front
// to back, before any value lands in it. A loader appends each row to
// every column in turn, so pages first touched by those appends would
// alternate between the columns in physical memory, and filtered scans
// over such columns cost about 5 % more CPU (4M rows, an Intel Xeon VM).
func newSizedColumn(name string, typ Type, n int) *Column {
	c := NewEmptyColumn(name, typ)
	if n <= 0 {
		return c
	}
	// make leaves memory fresh from the OS untouched; clear writes it.
	switch typ {
	case Int64:
		c.ints = make([]int64, n)
		clear(c.ints)
		c.ints = c.ints[:0]
	case Float64:
		c.flts = make([]float64, n)
		clear(c.flts)
		c.flts = c.flts[:0]
	case Bool:
		c.bools = make([]byte, n)
		clear(c.bools)
		c.bools = c.bools[:0]
	case String:
		c.codes = make([]int32, n)
		clear(c.codes)
		c.codes = c.codes[:0]
	}
	return c
}

// Name reports the column name.
func (c *Column) Name() string { return c.name }

// Type reports the column type.
func (c *Column) Type() Type { return c.typ }

// Len reports the number of values.
func (c *Column) Len() int {
	switch c.typ {
	case Int64:
		return len(c.ints)
	case Float64:
		return len(c.flts)
	case Bool:
		return len(c.bools)
	case String:
		return len(c.codes)
	default:
		return 0
	}
}

// Dict exposes the dictionary of a STRING column (nil otherwise).
func (c *Column) Dict() *Dictionary { return c.dict }

// Value returns the cell at i. It panics if i is out of range, matching
// slice semantics.
func (c *Column) Value(i int) Value {
	switch c.typ {
	case Int64:
		return IntValue(c.ints[i])
	case Float64:
		return FloatValue(c.flts[i])
	case Bool:
		return BoolValue(c.bools[i] != 0)
	case String:
		return StringValue(c.dict.Lookup(c.codes[i]))
	default:
		return Value{}
	}
}

// Float returns the cell at i coerced to float64 — the hot path for
// aggregation, avoiding Value boxing.
func (c *Column) Float(i int) float64 {
	switch c.typ {
	case Int64:
		return float64(c.ints[i])
	case Float64:
		return c.flts[i]
	case Bool:
		return float64(c.bools[i])
	case String:
		return float64(c.codes[i])
	default:
		return 0
	}
}

// Int returns the cell at i as int64 (float cells truncate).
func (c *Column) Int(i int) int64 {
	switch c.typ {
	case Int64:
		return c.ints[i]
	case Float64:
		return int64(c.flts[i])
	case Bool:
		return int64(c.bools[i])
	case String:
		return int64(c.codes[i])
	default:
		return 0
	}
}

// Append adds v to the end of the column, coercing to the column type.
func (c *Column) Append(v Value) {
	switch c.typ {
	case Int64:
		if v.Type == Float64 {
			c.ints = append(c.ints, int64(v.F))
		} else {
			c.ints = append(c.ints, v.I)
		}
	case Float64:
		c.flts = append(c.flts, v.AsFloat())
	case Bool:
		if v.B {
			c.bools = append(c.bools, 1)
		} else {
			c.bools = append(c.bools, 0)
		}
	case String:
		c.codes = append(c.codes, c.dict.Intern(v.S))
	}
}

// Grow reserves room for n more values, so the appends that follow do not
// regrow the backing array one doubling at a time.
func (c *Column) Grow(n int) {
	switch c.typ {
	case Int64:
		c.ints = slices.Grow(c.ints, n)
	case Float64:
		c.flts = slices.Grow(c.flts, n)
	case Bool:
		c.bools = slices.Grow(c.bools, n)
	case String:
		c.codes = slices.Grow(c.codes, n)
	}
}

// appendCells appends cell col of every row, coercing each like Append:
// one type dispatch and one reservation per batch instead of per cell.
func (c *Column) appendCells(rows [][]Value, col int) {
	c.Grow(len(rows))
	switch c.typ {
	case Int64:
		for _, r := range rows {
			if v := &r[col]; v.Type == Float64 {
				c.ints = append(c.ints, int64(v.F))
			} else {
				c.ints = append(c.ints, v.I)
			}
		}
	case Float64:
		for _, r := range rows {
			c.flts = append(c.flts, r[col].AsFloat())
		}
	case Bool:
		for _, r := range rows {
			var b byte
			if r[col].B {
				b = 1
			}
			c.bools = append(c.bools, b)
		}
	case String:
		c.codes = c.dict.appendCodes(c.codes, len(rows), func(r int) string { return rows[r][col].S })
	}
}

// appendVector appends every cell of v, coercing each exactly as Append
// would its Value. A vector of the column's own kind — and JSON numbers
// into an INT column, which truncate — is copied by a typed loop; any
// other pairing takes Append cell by cell, so the coercion table stays
// Append's alone.
func (c *Column) appendVector(v *vector) {
	n := v.len()
	c.Grow(n)
	switch {
	case c.typ == Int64 && v.kind == vecFloat:
		for _, f := range v.flts {
			c.ints = append(c.ints, int64(f))
		}
	case c.typ == Float64 && v.kind == vecFloat:
		c.flts = append(c.flts, v.flts...)
	case c.typ == Bool && v.kind == vecBool:
		for _, x := range v.bools {
			var b byte
			if x {
				b = 1
			}
			c.bools = append(c.bools, b)
		}
	case c.typ == String && v.kind == vecString:
		c.codes = c.dict.appendCodes(c.codes, n, func(i int) string { return v.strs[i] })
	default:
		for i := 0; i < n; i++ {
			c.Append(v.value(i))
		}
	}
}

// Prefix returns a read-only view of the first n values sharing c's
// backing arrays. The view's slices are capped (three-index sliced) so a
// later Append on c that grows the backing array in place can never leak
// past-the-end values into the view — this is the copy-on-tail snapshot
// primitive used by live tables: the appender only ever writes at indexes
// ≥ n, so published prefixes stay immutable without copying.
func (c *Column) Prefix(n int) (*Column, error) {
	s := new(Column)
	if err := c.PrefixInto(s, n); err != nil {
		return nil, err
	}
	return s, nil
}

// PrefixInto makes dst, a zero Column, the view Prefix would return, for
// callers that allocate many views at once.
func (c *Column) PrefixInto(dst *Column, n int) error {
	if n < 0 || n > c.Len() {
		return fmt.Errorf("storage: prefix %d out of range for column %q of length %d", n, c.name, c.Len())
	}
	dst.name, dst.typ, dst.dict = c.name, c.typ, c.dict
	switch c.typ {
	case Int64:
		dst.ints = c.ints[:n:n]
	case Float64:
		dst.flts = c.flts[:n:n]
	case Bool:
		dst.bools = c.bools[:n:n]
	case String:
		dst.codes = c.codes[:n:n]
	}
	return nil
}

// EmptyLike returns a zero-length column with c's name and type. String
// columns share c's dictionary so codes appended via AppendAt stay valid.
func (c *Column) EmptyLike() *Column {
	out := &Column{name: c.name, typ: c.typ, dict: c.dict}
	return out
}

// tail returns a new column holding a copy of c's values from lo on, in
// fresh arrays with room for capacity values (at least the copy). String
// columns share c's dictionary. This is retention compaction's copy: the
// old arrays stay untouched under the snapshots that still read them.
func (c *Column) tail(lo, capacity int) *Column {
	n := c.Len() - lo
	capacity = max(capacity, n)
	out := c.EmptyLike()
	switch c.typ {
	case Int64:
		out.ints = append(make([]int64, 0, capacity), c.ints[lo:]...)
	case Float64:
		out.flts = append(make([]float64, 0, capacity), c.flts[lo:]...)
	case Bool:
		out.bools = append(make([]byte, 0, capacity), c.bools[lo:]...)
	case String:
		out.codes = append(make([]int32, 0, capacity), c.codes[lo:]...)
	}
	return out
}

// AppendAt appends src's cell at i to c without Value boxing — the hot
// path for extending sample-level tails and for retention compaction.
// The columns must have the same type; string columns must share a
// dictionary (codes are copied verbatim).
func (c *Column) AppendAt(src *Column, i int) {
	switch c.typ {
	case Int64:
		c.ints = append(c.ints, src.ints[i])
	case Float64:
		c.flts = append(c.flts, src.flts[i])
	case Bool:
		c.bools = append(c.bools, src.bools[i])
	case String:
		c.codes = append(c.codes, src.codes[i])
	}
}

// Slice returns a new column sharing c's backing arrays over [lo, hi).
func (c *Column) Slice(lo, hi int) (*Column, error) {
	if lo < 0 || hi > c.Len() || lo > hi {
		return nil, fmt.Errorf("storage: slice [%d,%d) out of range for column %q of length %d", lo, hi, c.name, c.Len())
	}
	s := &Column{name: c.name, typ: c.typ, dict: c.dict}
	switch c.typ {
	case Int64:
		s.ints = c.ints[lo:hi]
	case Float64:
		s.flts = c.flts[lo:hi]
	case Bool:
		s.bools = c.bools[lo:hi]
	case String:
		s.codes = c.codes[lo:hi]
	}
	return s, nil
}

// Strided builds a new column containing every stride-th value of c
// starting at offset — the building block for sample hierarchies.
func (c *Column) Strided(offset, stride int) *Column {
	out := NewEmptyColumn(c.name, c.typ)
	if stride <= 0 {
		return out
	}
	n := c.Len()
	if offset < 0 {
		offset = 0
	}
	switch c.typ {
	case Int64:
		vals := make([]int64, 0, (n-offset+stride-1)/stride)
		for i := offset; i < n; i += stride {
			vals = append(vals, c.ints[i])
		}
		out.ints = vals
	case Float64:
		vals := make([]float64, 0, (n-offset+stride-1)/stride)
		for i := offset; i < n; i += stride {
			vals = append(vals, c.flts[i])
		}
		out.flts = vals
	case Bool:
		vals := make([]byte, 0, (n-offset+stride-1)/stride)
		for i := offset; i < n; i += stride {
			vals = append(vals, c.bools[i])
		}
		out.bools = vals
	case String:
		// Share the dictionary: strided codes stay valid and the copy
		// skips per-cell lookup+re-intern round trips.
		out.dict = c.dict
		vals := make([]int32, 0, (n-offset+stride-1)/stride)
		for i := offset; i < n; i += stride {
			vals = append(vals, c.codes[i])
		}
		out.codes = vals
	}
	return out
}

// Clone returns a deep copy of the column.
func (c *Column) Clone() *Column {
	out := &Column{name: c.name, typ: c.typ}
	switch c.typ {
	case Int64:
		out.ints = append([]int64(nil), c.ints...)
	case Float64:
		out.flts = append([]float64(nil), c.flts...)
	case Bool:
		out.bools = append([]byte(nil), c.bools...)
	case String:
		out.codes = append([]int32(nil), c.codes...)
		out.dict = c.dict.Clone()
	}
	return out
}

// Ints exposes the backing int64 slice of an INT column (nil otherwise).
// Callers must not resize it.
func (c *Column) Ints() []int64 { return c.ints }

// Floats exposes the backing float64 slice of a FLOAT column.
func (c *Column) Floats() []float64 { return c.flts }
