package storage

import (
	"encoding/csv"
	"fmt"
	"io"
)

// Test-only hooks for this package's tests and the external storage_test
// package.

// SetSIMD forces every SIMD dispatch flag on or off (on is clamped to
// SIMDAvailable) and returns a restore func.
var SetSIMD = setSIMD

// SIMDAvailable reports whether this build and host run the SIMD kernels.
var SIMDAvailable = simdAvailable

// CountFolds reports whether a fused COUNT of c under this predicate
// runs on the bitmap kernel: its pass table folds into one register.
func CountFolds(c *Column, op RangeOp, operand Value) bool {
	return c.preparePred(op, operand).masked
}

// Set overwrites the cell at i with v, coercing to the column type. Tests
// mutate copies with it to prove they share no storage.
func (c *Column) Set(i int, v Value) {
	switch c.typ {
	case Int64:
		if v.Type == Float64 {
			c.ints[i] = int64(v.F)
		} else {
			c.ints[i] = v.I
		}
	case Float64:
		c.flts[i] = v.AsFloat()
	case Bool:
		if v.B {
			c.bools[i] = 1
		} else {
			c.bools[i] = 0
		}
	case String:
		c.codes[i] = c.dict.Intern(v.S)
	}
}

// WriteCSV serializes m (any layout) as CSV with a typed header, the
// inverse of ReadCSV.
func WriteCSV(m *Matrix, w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, m.NumCols())
	for i, cm := range m.Schema() {
		header[i] = cm.Name + ":" + cm.Type.String()
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("storage: writing CSV header: %w", err)
	}
	rec := make([]string, m.NumCols())
	for r := 0; r < m.NumRows(); r++ {
		for c := 0; c < m.NumCols(); c++ {
			v, err := m.At(r, c)
			if err != nil {
				return err
			}
			rec[c] = v.String()
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("storage: writing CSV row %d: %w", r, err)
		}
	}
	cw.Flush()
	return cw.Error()
}
