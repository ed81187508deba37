package storage

import (
	"bytes"
	"strings"
	"testing"
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
	}{
		{"bad type", "x:BLOB\n1\n"},
		{"bad int", "x:INT\nnope\n"},
		{"bad float", "x:FLOAT\nnope\n"},
		{"bad bool", "x:BOOL\nmaybe\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadCSV("t", strings.NewReader(tc.in)); err == nil {
				t.Fatalf("want error for %q", tc.in)
			}
		})
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
