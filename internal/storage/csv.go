package storage

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ReadCSV loads a column-major matrix from CSV. The first record must be a
// header of "name:TYPE" fields, e.g. "temp:FLOAT,host:STRING,ok:BOOL".
// A bare name defaults to FLOAT, the type most exploration workloads use.
func ReadCSV(name string, r io.Reader) (*Matrix, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("storage: reading CSV header: %w", err)
	}
	cols := make([]*Column, len(header))
	for i, h := range header {
		colName, typeName, found := strings.Cut(strings.TrimSpace(h), ":")
		typ := Float64
		if found {
			typ, err = ParseType(strings.TrimSpace(typeName))
			if err != nil {
				return nil, fmt.Errorf("storage: CSV column %d: %w", i, err)
			}
		}
		cols[i] = NewEmptyColumn(strings.TrimSpace(colName), typ)
	}
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("storage: reading CSV line %d: %w", line+1, err)
		}
		line++
		if len(rec) != len(cols) {
			return nil, fmt.Errorf("storage: CSV line %d has %d fields, want %d", line, len(rec), len(cols))
		}
		for i, field := range rec {
			v, err := parseField(strings.TrimSpace(field), cols[i].Type())
			if err != nil {
				return nil, fmt.Errorf("storage: CSV line %d column %q: %w", line, cols[i].Name(), err)
			}
			cols[i].Append(v)
		}
	}
	return NewMatrix(name, cols...)
}

func parseField(s string, t Type) (Value, error) {
	switch t {
	case Int64:
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("parsing %q as INT: %w", s, err)
		}
		return IntValue(n), nil
	case Float64:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Value{}, fmt.Errorf("parsing %q as FLOAT: %w", s, err)
		}
		return FloatValue(f), nil
	case Bool:
		b, err := strconv.ParseBool(s)
		if err != nil {
			return Value{}, fmt.Errorf("parsing %q as BOOL: %w", s, err)
		}
		return BoolValue(b), nil
	case String:
		return StringValue(s), nil
	default:
		return Value{}, fmt.Errorf("unsupported type %v", t)
	}
}
