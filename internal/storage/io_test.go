package storage

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

func TestReadCSV(t *testing.T) {
	in := "id:INT,temp:FLOAT,host:STRING,ok:BOOL\n1,20.5,web,true\n2,21.0,db,false\n"
	m, err := ReadCSV("readings", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.NumRows() != 2 || m.NumCols() != 4 {
		t.Fatalf("dims = %dx%d", m.NumRows(), m.NumCols())
	}
	v, _ := m.At(1, 2)
	if v.S != "db" {
		t.Fatalf("cell = %v", v)
	}
	b, _ := m.At(0, 3)
	if !b.B {
		t.Fatalf("bool cell = %v", b)
	}
}

func TestReadCSVDefaultsToFloat(t *testing.T) {
	m, err := ReadCSV("t", strings.NewReader("x\n1.5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Schema()[0].Type != Float64 {
		t.Fatalf("bare header type = %v, want FLOAT", m.Schema()[0].Type)
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []struct {
		name, in string
		// want, when set, is a part of the error text: the physical line
		// the error names.
		want string
	}{
		{"bad type", "x:BLOB\n1\n", ""},
		{"bad int", "x:INT\nnope\n", ""},
		{"bad float", "x:FLOAT\nnope\n", ""},
		{"bad bool", "x:BOOL\nmaybe\n", ""},
		{"bad cell after a quoted newline", "s:STRING,n:INT\n\"a\nb\",1\nx,bad\n", `CSV line 4 column "n"`},
		{"bad cell after a blank line", "n:INT\n1\n\n2\nbad\n", `CSV line 5 column "n"`},
		{"short row after a quoted newline", "s:STRING,n:INT\n\"a\nb\",1\nx\n", "reading CSV line 4: record on line 4: wrong number of fields"},
		{"short row", "s:STRING,n:INT\n\na,1\nx\n", "reading CSV line 4: record on line 4: wrong number of fields"},
		{"bare quote after a quoted newline", "s:STRING\n\"a\nb\"\nx\"y\n", "reading CSV line 4: parse error on line 4, column 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadCSV("t", strings.NewReader(tc.in))
			if err == nil {
				t.Fatalf("want error for %q", tc.in)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name %q", err, tc.want)
			}
		})
	}
}

// readCSVOracle is the loader before its fast path: every record goes
// through encoding/csv, and errors name the physical line through the
// reader's own positions. FuzzReadCSV holds ReadCSV to it.
func readCSVOracle(name string, r io.Reader) (*Matrix, error) {
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
	last := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			line := last + 1
			var pe *csv.ParseError
			if errors.As(err, &pe) {
				line = pe.StartLine
			}
			return nil, fmt.Errorf("storage: reading CSV line %d: %w", line, err)
		}
		line, _ := cr.FieldPos(0)
		if len(rec) != len(cols) {
			return nil, fmt.Errorf("storage: CSV line %d has %d fields, want %d", line, len(rec), len(cols))
		}
		for i, field := range rec {
			v, err := oracleParseField(strings.TrimSpace(field), cols[i].Type())
			if err != nil {
				line, _ := cr.FieldPos(i)
				return nil, fmt.Errorf("storage: CSV line %d column %q: %w", line, cols[i].Name(), err)
			}
			cols[i].Append(v)
		}
		last, _ = cr.FieldPos(len(rec) - 1)
	}
	return NewMatrix(name, cols...)
}

func oracleParseField(s string, t Type) (Value, error) {
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

// sameLoad reports how two loads of one input differ: the same schema,
// the same cells (floats bit for bit) and the same dictionary codes, or
// the same error text.
func sameLoad(got *Matrix, gotErr error, want *Matrix, wantErr error) error {
	if gotErr != nil || wantErr != nil {
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			return fmt.Errorf("error %v, want %v", gotErr, wantErr)
		}
		return nil
	}
	if fmt.Sprint(got.Schema()) != fmt.Sprint(want.Schema()) || got.NumRows() != want.NumRows() {
		return fmt.Errorf("schema %v with %d rows, want %v with %d", got.Schema(), got.NumRows(), want.Schema(), want.NumRows())
	}
	for i := range want.cols {
		g, w := got.cols[i], want.cols[i]
		for r := 0; r < w.Len(); r++ {
			if g.Int(r) != w.Int(r) || math.Float64bits(g.Float(r)) != math.Float64bits(w.Float(r)) {
				return fmt.Errorf("column %d row %d: %v, want %v", i, r, g.Value(r), w.Value(r))
			}
		}
		if w.dict != nil && fmt.Sprint(g.dict.values) != fmt.Sprint(w.dict.values) {
			return fmt.Errorf("column %d dictionary %q, want %q", i, g.dict.values, w.dict.values)
		}
	}
	return nil
}

// FuzzReadCSV holds the loader to readCSVOracle over inputs that take
// the fast path, hand over to encoding/csv part way, or start there —
// read from a seekable reader (columns presized), a plain one, and one
// that returns a byte per read.
func FuzzReadCSV(f *testing.F) {
	long := strings.Repeat("x", csvBufSize+100)
	for _, seed := range []string{
		"s:STRING,n:INT\n\"a \"\"b\"\", c\",1\n\"d,e\",2\n",
		"s:STRING,n:INT\n\"a\nb\",1\nx,2\n",
		"i:INT,f:FLOAT\r\n1,2.5\r\n3,-4e3\r\n",
		"i:INT\n\n1\n   \n\r\n2\n",
		"s:STRING\n\n  \n",
		"i:INT,s:STRING\n1,a\n2,b",
		"s:STRING,n:INT\n" + long + ",1\nshort,2\n",
		"s:STRING,n:INT\nx," + long + "\n",
		"s:STRING,n:INT\na,1\nb,2\n\"c\",3\nd,4\n",
		"i:INT,j:INT\n1,2\n3\n4,5,6\n",
		"i:INT\n1\nx\n",
		"f:FLOAT\n1.5\nNaN\n-Inf\n1e400\nfoo\n",
		"b:BOOL\ntrue\nF\n1\nmaybe\n",
		"i:INT,s:STRING,f:FLOAT\n  7 , padded ,\t2.25 \n",
		"i:INT,f:FLOAT,b:BOOL,s:STRING,plain\n1,2.5,true,x,3\n-9223372036854775808,0x1p-2,0,y,inf\n",
		"x:BLOB\n1\n",
		"\"q:INT\",f\n1,2\n",
		"",
		"a\r",
		"i:INT\n1\r\r\n2\r",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		want, wantErr := readCSVOracle("t", strings.NewReader(in))
		for _, r := range []struct {
			name string
			r    io.Reader
		}{
			{"seeker", strings.NewReader(in)},
			{"reader", struct{ io.Reader }{strings.NewReader(in)}},
			{"one byte", iotest.OneByteReader(strings.NewReader(in))},
		} {
			got, err := ReadCSV("t", r.r)
			if d := sameLoad(got, err, want, wantErr); d != nil {
				t.Fatalf("%s: %v", r.name, d)
			}
		}
	})
}

// csvRows renders n unquoted rows of every column type; the strings come
// from a fixed set of keys, so the dictionary is the same size at any n.
func csvRows(n int) []byte {
	b := []byte("i:INT,f:FLOAT,s:STRING,b:BOOL\n")
	for r := 0; r < n; r++ {
		b = strconv.AppendInt(b, int64(r*7919%100003), 10)
		b = append(b, ',')
		b = strconv.AppendFloat(b, float64(r)/7, 'g', -1, 64)
		b = append(b, ",key"...)
		b = strconv.AppendInt(b, int64(r%16), 10)
		b = append(b, ',')
		b = strconv.AppendBool(b, r%3 == 0)
		b = append(b, '\n')
	}
	return b
}

// TestReadCSVSizesColumnsOnce: a file of n unquoted rows leaves every
// column at capacity n — counted once, never regrown.
func TestReadCSVSizesColumnsOnce(t *testing.T) {
	const n = 10007
	path := filepath.Join(t.TempDir(), "t.csv")
	if err := os.WriteFile(path, csvRows(n), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := ReadCSV("t", f)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range m.cols {
		if c.Len() != n {
			t.Fatalf("column %s has %d rows, want %d", c.Name(), c.Len(), n)
		}
		if got := cap(c.ints) + cap(c.flts) + cap(c.bools) + cap(c.codes); got != n {
			t.Errorf("column %s has capacity %d, want %d", c.Name(), got, n)
		}
	}
}

// TestReadCSVAllocsFlat: loading unquoted rows allocates the same at 10k
// and at 100k rows — nothing per row. The collector is off while it
// counts: the runtime's own work after a collection allocates too, and
// the larger load would collect more often.
func TestReadCSVAllocsFlat(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(n int) float64 {
		data := csvRows(n)
		return testing.AllocsPerRun(3, func() {
			if _, err := ReadCSV("t", bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, big := allocs(10_000), allocs(100_000); small != big {
		t.Fatalf("ReadCSV allocates %v times over 10k rows and %v over 100k", small, big)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	m, err := NewMatrix("t",
		NewIntColumn("i", []int64{5, -7}),
		NewStringColumn("s", []string{"hello, world", "line"}),
	)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(m, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV("t", &buf)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < m.NumRows(); r++ {
		for c := 0; c < m.NumCols(); c++ {
			a, _ := m.At(r, c)
			b, _ := back.At(r, c)
			if !a.Equal(b) {
				t.Errorf("cell (%d,%d): %v != %v", r, c, a, b)
			}
		}
	}
}

func TestParseType(t *testing.T) {
	for in, want := range map[string]Type{
		"INT": Int64, "int64": Int64, "FLOAT": Float64,
		"BOOL": Bool, "STRING": String, "text": String,
	} {
		got, err := ParseType(in)
		if err != nil || got != want {
			t.Errorf("ParseType(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseType("DECIMAL"); err == nil {
		t.Fatal("unknown type should error")
	}
}
