package storage

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// mixedTable is one column of every type, empty.
func mixedTable(t *testing.T) *Table {
	t.Helper()
	tb, err := NewTable("mixed",
		NewEmptyColumn("i", Int64),
		NewEmptyColumn("f", Float64),
		NewEmptyColumn("b", Bool),
		NewEmptyColumn("s", String),
	)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// randomCell draws a cell of any type, whatever column it is headed for:
// the wire coerces nothing by column, so a float can land in an INT, a
// string in an INT (0), a number in a STRING ("").
func randomCell(rng *rand.Rand) Value {
	switch rng.Intn(5) {
	case 0:
		return IntValue(rng.Int63n(1<<40) - 1<<39)
	case 1:
		return FloatValue(rng.NormFloat64() * 1e6)
	case 2:
		return BoolValue(rng.Intn(2) == 0)
	case 3:
		return StringValue(fmt.Sprintf("k%02d", rng.Intn(40)))
	default:
		return StringValue(fmt.Sprint(rng.Intn(1000))) // numeric text: AsFloat parses it
	}
}

// tableCells renders every published cell, dictionary codes included.
func tableCells(t *testing.T, snap *TableSnapshot) [][]Value {
	t.Helper()
	out := make([][]Value, snap.Rows)
	for r := range out {
		row, err := snap.Matrix.Row(r)
		if err != nil {
			t.Fatal(err)
		}
		out[r] = row
	}
	return out
}

// TestAppendBatchMatchesRowWiseAppend holds the column-wise batch path to
// the loop it replaced — Column.Append cell by cell, row by row — on
// randomized batches where any cell type may meet any column type, across
// enough rows to cross several retention compactions.
func TestAppendBatchMatchesRowWiseAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	got := mixedTable(t)
	if err := got.SetRetention(Retention{MaxRows: 1500}); err != nil {
		t.Fatal(err)
	}
	// The reference: plain columns, appended row-wise, never compacted;
	// the table's live rows are always the reference's last Rows rows.
	want := []*Column{NewEmptyColumn("i", Int64), NewEmptyColumn("f", Float64), NewEmptyColumn("b", Bool), NewEmptyColumn("s", String)}
	for batch := 0; got.Gen() < 3; batch++ {
		rows := make([][]Value, 1+rng.Intn(400))
		for r := range rows {
			rows[r] = []Value{randomCell(rng), randomCell(rng), randomCell(rng), randomCell(rng)}
			for c, col := range want {
				col.Append(rows[r][c])
			}
		}
		snap, err := got.AppendBatch(rows)
		if err != nil {
			t.Fatal(err)
		}
		lo := want[0].Len() - snap.Rows
		for r, row := range tableCells(t, snap) {
			for c, col := range want {
				if ref := col.Value(lo + r); !reflect.DeepEqual(row[c], ref) {
					t.Fatalf("batch %d gen %d row %d col %s: batch path stored %+v, row-wise append %+v", batch, snap.Gen, r, col.Name(), row[c], ref)
				}
			}
		}
	}
}

// TestAppendBatchCoercions pins each cross-type landing by value.
func TestAppendBatchCoercions(t *testing.T) {
	tb := mixedTable(t)
	snap, err := tb.AppendBatch([][]Value{
		{FloatValue(7.9), IntValue(3), IntValue(1), IntValue(5)},
		{FloatValue(-7.9), BoolValue(true), StringValue("x"), FloatValue(2.5)},
		{StringValue("12"), StringValue("12.5"), BoolValue(true), BoolValue(true)},
		{BoolValue(true), StringValue("nope"), FloatValue(1), StringValue("s")},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]Value{
		{IntValue(7), FloatValue(3), BoolValue(false), StringValue("")},
		{IntValue(-7), FloatValue(1), BoolValue(false), StringValue("")},
		{IntValue(0), FloatValue(12.5), BoolValue(true), StringValue("")},
		{IntValue(0), FloatValue(0), BoolValue(false), StringValue("s")},
	}
	if got := tableCells(t, snap); !reflect.DeepEqual(got, want) {
		t.Fatalf("coerced cells:\n got %+v\nwant %+v", got, want)
	}
}

// TestAppendBatchRaggedRowTouchesNothing: a short row anywhere in the
// batch — here the last — rejects it before any column grew, which the
// column-wise order would otherwise leave half-applied.
func TestAppendBatchRaggedRowTouchesNothing(t *testing.T) {
	tb := mixedTable(t)
	full := []Value{IntValue(1), FloatValue(1), BoolValue(true), StringValue("a")}
	if _, err := tb.AppendBatch([][]Value{full}); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.AppendBatch([][]Value{full, full, full[:3]}); err == nil {
		t.Fatal("ragged batch accepted")
	}
	for _, c := range tb.cols {
		if c.Len() != 1 {
			t.Fatalf("column %s holds %d values after a rejected batch, want 1", c.Name(), c.Len())
		}
	}
	if tb.Rows() != 1 || tb.Epoch() != 2 {
		t.Fatalf("rows %d epoch %d after a rejected batch, want 1 / 2", tb.Rows(), tb.Epoch())
	}
}

// TestSnapshotSurvivesReserveAndCompaction: a published snapshot is a
// prefix view of arrays the appender keeps extending. Reserving room for
// a batch may move the table to new arrays, and compaction always does;
// either way a view taken before must keep reading the values it was
// published with, and never the new array's.
func TestSnapshotSurvivesReserveAndCompaction(t *testing.T) {
	tb := mixedTable(t)
	if err := tb.SetRetention(Retention{MaxRows: 1100}); err != nil {
		t.Fatal(err)
	}
	row := func(i int) []Value {
		return []Value{IntValue(int64(i)), FloatValue(float64(i) / 4), BoolValue(i%3 == 0), StringValue(fmt.Sprintf("k%d", i%7))}
	}
	type pinned struct {
		snap  *TableSnapshot
		first int // the source index of the snapshot's row 0
	}
	var pins []pinned
	next, first := 0, 0
	for tb.Gen() < 2 {
		rows := make([][]Value, 173)
		for r := range rows {
			rows[r] = row(next)
			next++
		}
		gen := tb.Gen()
		snap, err := tb.AppendBatch(rows)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Gen != gen {
			first = next - snap.Rows
		}
		pins = append(pins, pinned{snap, first})
		// Every snapshot ever published, including those whose arrays have
		// since been outgrown or compacted away from, still reads true.
		for _, p := range pins {
			if p.snap.Matrix.NumRows() != p.snap.Rows {
				t.Fatalf("epoch %d: matrix has %d rows, snapshot says %d", p.snap.Epoch, p.snap.Matrix.NumRows(), p.snap.Rows)
			}
			for _, r := range []int{0, p.snap.Rows / 2, p.snap.Rows - 1} {
				got, err := p.snap.Matrix.Row(r)
				if err != nil {
					t.Fatal(err)
				}
				if want := row(p.first + r); !reflect.DeepEqual(got, want) {
					t.Fatalf("epoch %d (gen %d) row %d reads %+v after later appends, was published as %+v", p.snap.Epoch, p.snap.Gen, r, got, want)
				}
			}
		}
	}
	// The capacity rule: the fresh arrays hold exactly the length at which
	// the row cap forces the next compaction — nothing regrows before
	// then, nothing is reserved beyond it.
	for _, c := range tb.cols {
		if got, want := cap(c.ints)+cap(c.flts)+cap(c.bools)+cap(c.codes), 2*1100; got != want {
			t.Fatalf("column %s has capacity %d after a compaction, want %d", c.Name(), got, want)
		}
	}
}

// TestInternDoesNotRetainCaller: a decoded append body hands the
// dictionary substrings of one large string; a key the dictionary keeps
// must be its own copy, or every new key would pin a whole request body
// for the life of the table.
func TestInternDoesNotRetainCaller(t *testing.T) {
	d := NewDictionary()
	body := strings.Repeat("x", 1<<16) + "key"
	key := body[1<<16:]
	if code := d.Intern(key); code != 0 {
		t.Fatalf("first key got code %d", code)
	}
	inBody := func(s string) bool { return unsafe.StringData(s) == unsafe.StringData(key) }
	if got := d.Lookup(0); got != "key" || inBody(got) {
		t.Fatalf("the dictionary's value %q shares memory with the string it was sliced from", got)
	}
	for k := range d.index {
		if k != "key" || inBody(k) {
			t.Fatalf("the dictionary's index key %q shares memory with the string it was sliced from", k)
		}
	}
}
