package storage

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// csvBufSize is the loader's read buffer. A line that does not fit in it
// goes to encoding/csv with the rest of the input.
const csvBufSize = 64 << 10

// errHandOver stops the fast path: the line just read, and everything
// after it, is parsed by encoding/csv.
var errHandOver = errors.New("storage: CSV input needs encoding/csv")

// ReadCSV loads a column-major matrix from CSV. The first record must be a
// header of "name:TYPE" fields, e.g. "temp:FLOAT,host:STRING,ok:BOOL".
// A bare name defaults to FLOAT, the type most exploration workloads use.
//
// A load costs about the bytes of the columns it builds. When r can seek
// (an *os.File), the lines are counted first and every column is sized
// once. A line without a quote is split inside the read buffer and its
// cells parsed in place, so it allocates nothing. The first line that
// holds a quote, or that outgrows the buffer, hands the rest of the input
// to encoding/csv, whose semantics the fast path reproduces for the lines
// before it. Errors name the physical line, counted from 1.
func ReadCSV(name string, r io.Reader) (*Matrix, error) {
	l := &csvLoader{br: bufio.NewReaderSize(r, csvBufSize)}
	if err := l.countRows(r); err != nil {
		return nil, err
	}
	line, err := l.next()
	switch {
	case err == errHandOver:
		return l.readRest(name)
	case err != nil:
		return nil, fmt.Errorf("storage: reading CSV header: %w", err)
	}
	if err := l.setHeader(strings.Split(string(line), ",")); err != nil {
		return nil, err
	}
	for {
		line, err := l.next()
		switch {
		case err == io.EOF:
			return NewMatrix(name, l.cols...)
		case err == errHandOver:
			return l.readRest(name)
		case err != nil:
			return nil, fmt.Errorf("storage: reading CSV line %d: %w", l.line+1, err)
		}
		if err := l.appendRow(line); err != nil {
			return nil, err
		}
	}
}

// csvLoader is one ReadCSV call's state.
type csvLoader struct {
	br *bufio.Reader
	// rows is the data-row count countRows found (0 when r cannot seek).
	rows int
	// line counts the physical lines the fast path has consumed.
	line int
	// cols are the columns being built (nil until the header is read).
	cols []*Column
	// rest is the input from the handed-over line on.
	rest io.Reader
}

// countRows counts the lines after the first, a last line without a
// newline included, when r can seek, and rewinds it. A reader that cannot
// seek leaves rows at 0, and its columns grow as the rows come.
func (l *csvLoader) countRows(r io.Reader) error {
	s, ok := r.(io.Seeker)
	if !ok {
		return nil
	}
	start, err := s.Seek(0, io.SeekCurrent)
	if err != nil {
		return nil // a pipe
	}
	lines, last := 0, byte('\n')
	for {
		b, err := l.br.Peek(csvBufSize)
		lines += bytes.Count(b, []byte{'\n'})
		if len(b) > 0 {
			last = b[len(b)-1]
		}
		l.br.Discard(len(b))
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("storage: reading CSV: %w", err)
		}
	}
	if last != '\n' {
		lines++
	}
	if _, err := s.Seek(start, io.SeekStart); err != nil {
		return fmt.Errorf("storage: rewinding CSV: %w", err)
	}
	l.br.Reset(r)
	l.rows = max(lines-1, 0)
	return nil
}

// next returns the next nonblank line with its ending dropped, split as
// encoding/csv splits lines: at '\n', dropping a "\r\n" ending whole and,
// at EOF, a final '\r'. It returns errHandOver, with the line kept for
// encoding/csv, for a line that holds a quote or outgrows the buffer.
func (l *csvLoader) next() ([]byte, error) {
	for {
		line, err := l.br.ReadSlice('\n')
		switch {
		case err == bufio.ErrBufferFull:
			return nil, l.handOver(line)
		case err == io.EOF && len(line) == 0:
			return nil, io.EOF
		case err != nil && err != io.EOF:
			return nil, err
		case bytes.IndexByte(line, '"') >= 0:
			return nil, l.handOver(line)
		}
		l.line++
		if n := len(line); n > 0 && line[n-1] == '\n' {
			line = line[:n-1]
		}
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
		if len(line) > 0 {
			return line, nil
		}
	}
}

// handOver keeps line, which aliases the read buffer, ahead of the unread
// input for encoding/csv.
func (l *csvLoader) handOver(line []byte) error {
	l.rest = io.MultiReader(bytes.NewReader(bytes.Clone(line)), l.br)
	return errHandOver
}

// setHeader builds the columns the header fields name, each sized for
// every counted row.
func (l *csvLoader) setHeader(header []string) error {
	l.cols = make([]*Column, len(header))
	for i, h := range header {
		colName, typeName, found := strings.Cut(strings.TrimSpace(h), ":")
		typ := Float64
		if found {
			var err error
			if typ, err = ParseType(strings.TrimSpace(typeName)); err != nil {
				return fmt.Errorf("storage: CSV column %d: %w", i, err)
			}
		}
		l.cols[i] = newSizedColumn(strings.TrimSpace(colName), typ, l.rows)
	}
	return nil
}

// appendRow appends the cells of one unquoted line, failing as
// encoding/csv would on a line with the wrong number of fields.
func (l *csvLoader) appendRow(line []byte) error {
	if bytes.Count(line, []byte{','})+1 != len(l.cols) {
		err := &csv.ParseError{StartLine: l.line, Line: l.line, Column: 1, Err: csv.ErrFieldCount}
		return fmt.Errorf("storage: reading CSV line %d: %w", l.line, err)
	}
	for _, c := range l.cols {
		field := line
		if i := bytes.IndexByte(line, ','); i >= 0 {
			field, line = line[:i], line[i+1:]
		}
		if err := c.appendCell(field); err != nil {
			return cellError(l.line, c, err)
		}
	}
	return nil
}

// readRest parses the input from the handed-over line on with
// encoding/csv, whose line numbers count from that line.
func (l *csvLoader) readRest(name string) (*Matrix, error) {
	cr := csv.NewReader(l.rest)
	cr.ReuseRecord = true
	if l.cols == nil {
		header, err := cr.Read()
		if err != nil {
			l.shift(err)
			return nil, fmt.Errorf("storage: reading CSV header: %w", err)
		}
		if err := l.setHeader(header); err != nil {
			return nil, err
		}
	}
	cr.FieldsPerRecord = len(l.cols)
	last := 0 // the line of the last record's last field
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return NewMatrix(name, l.cols...)
		}
		if err != nil {
			line, ok := l.shift(err)
			if !ok {
				line = l.line + last + 1
			}
			return nil, fmt.Errorf("storage: reading CSV line %d: %w", line, err)
		}
		for i, field := range rec {
			if err := l.cols[i].appendCell([]byte(field)); err != nil {
				line, _ := cr.FieldPos(i)
				return nil, cellError(l.line+line, l.cols[i], err)
			}
		}
		last, _ = cr.FieldPos(len(rec) - 1)
	}
}

// shift moves a csv.ParseError's line numbers from the handed-over input
// to the whole input's, reporting the line its record starts on.
func (l *csvLoader) shift(err error) (int, bool) {
	var pe *csv.ParseError
	if !errors.As(err, &pe) {
		return 0, false
	}
	pe.StartLine += l.line
	pe.Line += l.line
	return pe.StartLine, true
}

func cellError(line int, c *Column, err error) error {
	return fmt.Errorf("storage: CSV line %d column %q: %w", line, c.Name(), err)
}

// appendCell parses one CSV cell, spaces trimmed, onto the end of c. A
// number parses from a string conversion that stays on the stack for a
// short cell, and a string already in the dictionary is found by its
// bytes, so a cell allocates nothing.
func (c *Column) appendCell(field []byte) error {
	field = bytes.TrimSpace(field)
	switch c.typ {
	case Int64:
		n, err := strconv.ParseInt(string(field), 10, 64)
		if err != nil {
			return fmt.Errorf("parsing %q as INT: %w", string(field), err)
		}
		c.ints = append(c.ints, n)
	case Float64:
		f, err := strconv.ParseFloat(string(field), 64)
		if err != nil {
			return fmt.Errorf("parsing %q as FLOAT: %w", string(field), err)
		}
		c.flts = append(c.flts, f)
	case Bool:
		b, err := strconv.ParseBool(string(field))
		if err != nil {
			return fmt.Errorf("parsing %q as BOOL: %w", string(field), err)
		}
		var v byte
		if b {
			v = 1
		}
		c.bools = append(c.bools, v)
	case String:
		c.codes = append(c.codes, c.dict.internBytes(field))
	}
	return nil
}
