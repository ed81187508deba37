// Package storage implements the dbTouch physical storage substrate: dense,
// fixed-width matrixes of typed values (paper §2.6 "Physical Layout").
//
// Each Matrix holds one or more columns of fixed-width fields and can be
// laid out column-major (a column-store: one dense array per attribute) or
// row-major (a row-store: attribute values interleaved per tuple). The
// fixed-width representation is what lets dbTouch map a touch location to a
// tuple identifier with pure arithmetic, without consulting slotted-page
// metadata.
//
// Storage is the shared immutable layer of the architecture: once loaded
// and registered in a Catalog, matrixes, columns and dictionaries are read
// concurrently by every exploration session without locking (see the
// Column sharing contract); the catalog itself and the lazily memoized
// predicate tables are the only internally synchronized pieces.
package storage

import (
	"fmt"
	"math"
	"strconv"
)

// Type identifies the logical type of a column. All types are stored as
// fixed-width 64-bit words; strings are dictionary encoded.
type Type uint8

// Supported column types.
const (
	Int64 Type = iota
	Float64
	Bool
	String
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case Int64:
		return "INT"
	case Float64:
		return "FLOAT"
	case Bool:
		return "BOOL"
	case String:
		return "STRING"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// ParseType converts a type name (as used in CSV schema headers) to a Type.
func ParseType(s string) (Type, error) {
	switch s {
	case "INT", "int", "int64":
		return Int64, nil
	case "FLOAT", "float", "float64":
		return Float64, nil
	case "BOOL", "bool":
		return Bool, nil
	case "STRING", "string", "text":
		return String, nil
	default:
		return 0, fmt.Errorf("storage: unknown type %q", s)
	}
}

// Value is a single typed cell. It is a small value type so operators can
// pass cells around without allocation.
type Value struct {
	Type Type
	I    int64
	F    float64
	B    bool
	S    string
}

// IntValue wraps an int64 as a Value.
func IntValue(v int64) Value { return Value{Type: Int64, I: v} }

// FloatValue wraps a float64 as a Value.
func FloatValue(v float64) Value { return Value{Type: Float64, F: v} }

// BoolValue wraps a bool as a Value.
func BoolValue(v bool) Value { return Value{Type: Bool, B: v} }

// StringValue wraps a string as a Value.
func StringValue(v string) Value { return Value{Type: String, S: v} }

// AsFloat coerces the value to a float64 for aggregation. Bools map to 0/1;
// strings map to their dictionary-free numeric parse or 0.
func (v Value) AsFloat() float64 {
	switch v.Type {
	case Int64:
		return float64(v.I)
	case Float64:
		return v.F
	case Bool:
		if v.B {
			return 1
		}
		return 0
	case String:
		f, err := strconv.ParseFloat(v.S, 64)
		if err != nil {
			return 0
		}
		return f
	default:
		return 0
	}
}

// AppendString appends String's rendering of v to dst without
// allocating a string.
func (v Value) AppendString(dst []byte) []byte {
	switch v.Type {
	case Int64:
		return strconv.AppendInt(dst, v.I, 10)
	case Float64:
		return strconv.AppendFloat(dst, v.F, 'g', -1, 64)
	case Bool:
		return strconv.AppendBool(dst, v.B)
	case String:
		return append(dst, v.S...)
	default:
		return append(dst, '?')
	}
}

// String renders the value for display.
func (v Value) String() string {
	switch v.Type {
	case Int64:
		return strconv.FormatInt(v.I, 10)
	case Float64:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case Bool:
		return strconv.FormatBool(v.B)
	case String:
		return v.S
	default:
		return "?"
	}
}

// Compare orders v against other. It returns a negative number if v < other,
// zero if equal, positive if v > other. Numeric types compare numerically
// (an INT compares against a FLOAT by value); strings compare
// lexicographically; comparing a string against a number compares the
// numeric coercion.
func (v Value) Compare(other Value) int {
	if v.Type == String && other.Type == String {
		switch {
		case v.S < other.S:
			return -1
		case v.S > other.S:
			return 1
		default:
			return 0
		}
	}
	a, b := v.AsFloat(), other.AsFloat()
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Equal reports whether two values are equal under Compare semantics.
func (v Value) Equal(other Value) bool { return v.Compare(other) == 0 }

// word is the fixed-width 64-bit encoding used by row-major slabs.
func (v Value) word(dict *Dictionary) uint64 {
	switch v.Type {
	case Int64:
		return uint64(v.I)
	case Float64:
		return math.Float64bits(v.F)
	case Bool:
		if v.B {
			return 1
		}
		return 0
	case String:
		return uint64(dict.Intern(v.S))
	default:
		return 0
	}
}

// valueFromWord decodes a 64-bit word back into a Value of type t.
func valueFromWord(w uint64, t Type, dict *Dictionary) Value {
	switch t {
	case Int64:
		return IntValue(int64(w))
	case Float64:
		return FloatValue(math.Float64frombits(w))
	case Bool:
		return BoolValue(w != 0)
	case String:
		return StringValue(dict.Lookup(int32(w)))
	default:
		return Value{}
	}
}
