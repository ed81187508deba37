package storage_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"dbtouch/internal/core"
	"dbtouch/internal/gesture"
	"dbtouch/internal/operator"
	"dbtouch/internal/protocol"
	"dbtouch/internal/session"
	"dbtouch/internal/storage"
	"dbtouch/internal/touchos"
)

// A live table whose key dictionary grows past the 256 codes the string
// count's bitmap holds: counts before the crossing run on the kernel,
// counts after it on the table loop, and both must answer as the scalar
// build does — on the newest snapshot and on one pinned before the
// crossing, whose pass tables are extended under it.

// Row counts are odd, so every snapshot's last chunk has a ragged tail.
const (
	growthBaseRows  = 4003
	growthBaseKeys  = 200
	growthBatchRows = 401
	growthNewKeys   = 24 // per batch: 200, 224, 248, 272, 296 keys
	growthBatches   = 4
)

func growthTable(t *testing.T) *storage.Table {
	t.Helper()
	keys := make([]string, growthBaseRows)
	vals := make([]int64, growthBaseRows)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%03d", i*37%growthBaseKeys)
		vals[i] = int64(i)
	}
	tbl, err := storage.NewTable("events", storage.NewStringColumn("key", keys), storage.NewIntColumn("v", vals))
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// growthRows is append batch j: every fourth row carries one of the
// batch's new keys, the rest reuse old ones.
func growthRows(j int) [][]storage.Value {
	rows := make([][]storage.Value, growthBatchRows)
	for i := range rows {
		key := fmt.Sprintf("k%03d", (i*37+j)%growthBaseKeys)
		if i%4 == 0 {
			key = fmt.Sprintf("n%03d", j*growthNewKeys+i/4%growthNewKeys)
		}
		rows[i] = []storage.Value{storage.StringValue(key), storage.IntValue(int64(growthBaseRows + j*growthBatchRows + i))}
	}
	return rows
}

func keyColumn(t *testing.T, snap *storage.TableSnapshot) *storage.Column {
	t.Helper()
	c, err := snap.Matrix.Column(0)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

var growthOps = []storage.RangeOp{storage.RangeEq, storage.RangeNe, storage.RangeLt, storage.RangeLe, storage.RangeGt, storage.RangeGe}

var growthOperands = []storage.Value{storage.StringValue("k100"), storage.StringValue("n030"), storage.StringValue("n999")}

// checkCounts holds every fused count over c with SIMD dispatch on to
// the same count with it off.
func checkCounts(t *testing.T, label string, c *storage.Column) {
	t.Helper()
	count := func(simd bool, op storage.RangeOp, operand storage.Value) int {
		restore := storage.SetSIMD(simd)
		defer restore()
		fa, _ := c.FilterAggRangeBlocked(0, c.Len(), 1024, op, operand, storage.FusedCount, nil, nil, nil)
		return fa.N
	}
	for _, op := range growthOps {
		for _, operand := range growthOperands {
			if on, off := count(true, op, operand), count(false, op, operand); on != off {
				t.Fatalf("%s op=%d operand=%v: count %d with SIMD, %d without", label, op, operand.S, on, off)
			}
		}
	}
}

func TestLiveDictionaryGrowthCount(t *testing.T) {
	tbl := growthTable(t)
	pinned := keyColumn(t, tbl.Snapshot())
	sizes := []int{}
	for j := 0; ; j++ {
		c := keyColumn(t, tbl.Snapshot())
		size := c.Dict().Len()
		sizes = append(sizes, size)
		if storage.SIMDAvailable() {
			restore := storage.SetSIMD(true)
			folds := storage.CountFolds(c, storage.RangeLt, growthOperands[0])
			restore()
			if folds != (size <= 256) {
				t.Fatalf("dictionary of %d codes: bitmap kernel = %v", size, folds)
			}
		}
		checkCounts(t, fmt.Sprintf("epoch %d (%d codes)", j, size), c)
		checkCounts(t, fmt.Sprintf("epoch %d, pinned base", j), pinned)
		if j == growthBatches {
			break
		}
		if _, err := tbl.AppendBatch(growthRows(j)); err != nil {
			t.Fatal(err)
		}
	}
	if sizes[0] > 256 || sizes[len(sizes)-1] <= 256 {
		t.Fatalf("dictionary sizes %v never crossed 256 codes", sizes)
	}
}

// growthStream runs one session over a fresh growing table — a filtered
// COUNT object in aggregate mode and a filtered scan-mode object on the
// key column, slid between appends — and returns its results as binary
// /stream frames, one per gesture.
func growthStream(t *testing.T, simd bool) []byte {
	t.Helper()
	restore := storage.SetSIMD(simd)
	defer restore()
	m := session.NewManager(core.DefaultConfig())
	tbl := growthTable(t)
	m.Catalog().RegisterLive(tbl)
	s, err := m.Create("grow")
	if err != nil {
		t.Fatal(err)
	}
	filter := []operator.Predicate{{Col: 0, Op: operator.Lt, Operand: storage.StringValue("k100")}}
	frames := []touchos.Rect{touchos.NewRect(2, 2, 2, 10), touchos.NewRect(6, 2, 2, 10)}
	actions := []core.Actions{
		{Mode: core.ModeAggregate, Agg: operator.Count, Filters: filter},
		{Mode: core.ModeScan, Filters: filter},
	}
	for i, f := range frames {
		obj, err := s.CreateColumnObject("events", "key", f)
		if err != nil {
			t.Fatal(err)
		}
		obj.SetActions(actions[i])
	}
	var stream []byte
	var synth gesture.Synth
	cur := time.Duration(0)
	for j := 0; j <= growthBatches; j++ {
		for _, f := range frames {
			x := f.Origin.X + f.Size.W/2
			from := touchos.Point{X: x, Y: f.Origin.Y + 0.02}
			to := touchos.Point{X: x, Y: f.Origin.Y + f.Size.H - 0.02}
			results, err := s.Apply(synth.Slide(from, to, cur, time.Second))
			if err != nil {
				t.Fatal(err)
			}
			stream = protocol.AppendBinaryResults(stream, "grow", tbl.Epoch(), results)
			cur += 3 * time.Second
		}
		if j < growthBatches {
			if _, err := m.Append("events", growthRows(j)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return stream
}

func TestLiveDictionaryGrowthStream(t *testing.T) {
	on, off := growthStream(t, true), growthStream(t, false)
	if len(on) == 0 {
		t.Fatal("the session produced no results")
	}
	if !bytes.Equal(on, off) {
		t.Fatalf("stream diverged with SIMD on (%d bytes) and off (%d bytes)", len(on), len(off))
	}
}
