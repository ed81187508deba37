package session

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"dbtouch/internal/core"
	"dbtouch/internal/protocol"
	"dbtouch/internal/sessionlog"
	"dbtouch/internal/storage"
)

// ingestCompactBytes is the durable-ingest gates' compaction threshold.
const ingestCompactBytes = 64 << 10

// eventsTable is the bench's ingest table, events(ts INT, key STRING,
// value INT), capped at maxRows (0: uncapped).
func eventsTable(t testing.TB, maxRows int) *storage.Table {
	tb, err := storage.NewTable("events",
		storage.NewEmptyColumn("ts", storage.Int64),
		storage.NewEmptyColumn("key", storage.String),
		storage.NewEmptyColumn("value", storage.Int64))
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.SetRetention(storage.Retention{MaxRows: maxRows}); err != nil {
		t.Fatal(err)
	}
	return tb
}

// durableIngest serves the events table from a durable manager logging
// into dir, and returns a poster that sends one body through the real
// /rpc handler.
func durableIngest(t *testing.T, dir string, maxRows int) (m *Manager, st *sessionlog.Store, post func([]byte)) {
	st, err := sessionlog.Open(sessionlog.Options{Dir: dir, CompactBytes: ingestCompactBytes})
	if err != nil {
		t.Fatal(err)
	}
	m = NewManager(core.DefaultConfig())
	m.Catalog().RegisterLive(eventsTable(t, maxRows))
	m.EnableDurability(st)
	t.Cleanup(func() { m.Close(); st.Close() })
	h := protocol.NewHTTPHandler(m)
	return m, st, func(body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/rpc", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("append: status %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
}

// ingestBody is the 1000-row append bench/ sends: [ts, "kNN", value].
func ingestBody(t testing.TB) []byte {
	rng := rand.New(rand.NewSource(1000))
	rows := make([][]any, 1000)
	for r := range rows {
		rows[r] = []any{r, fmt.Sprintf("k%02d", rng.Intn(64)), rng.Intn(1_000_000)}
	}
	body, err := protocol.EncodeRequest(protocol.Request{Op: protocol.OpAppend, Table: "events", Rows: rows})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestDurableIngestSteadyState is the complexity gate for durable ingest
// into a full table: the cost of an append must not grow with the rows
// the table retains. Over a steady-state window that starts and ends at a
// table compaction, with a 50k-row cap and 1000-row batches:
//   - at most one append in 40 compacts;
//   - compactions x the checkpoint's size stay within twice the bytes
//     appended, i.e. the rewrite is amortized over the appends;
//   - one append allocates at most 100 times.
//
// Rewriting the table on (nearly) every append, as a fixed threshold the
// snapshot outgrows does, fails all three.
func TestDurableIngestSteadyState(t *testing.T) {
	_, st, post := durableIngest(t, t.TempDir(), 50_000)
	body := ingestBody(t)
	compactions := func() int64 { return st.Stats().Compactions }
	untilCompaction := func() (appends int) {
		for c := compactions(); compactions() == c; appends++ {
			post(body)
		}
		return appends
	}
	for i := 0; i < 60; i++ { // past the cap
		post(body)
	}
	untilCompaction()
	c0, bytes0 := compactions(), st.Stats().AppendedBytes
	appends := 0
	for appends < 400 {
		post(body)
		appends++
	}
	appends += untilCompaction()
	n, appended := compactions()-c0, st.Stats().AppendedBytes-bytes0

	if n*40 > int64(appends) {
		t.Errorf("%d compactions in %d appends, want at most 1 in 40", n, appends)
	}
	rep, err := st.LoadTable("events")
	switch {
	case err != nil:
		t.Fatal(err)
	case rep.Meta == nil:
		t.Error("the table log has no checkpoint")
	case n*rep.Meta.RawBytes > 2*appended:
		t.Errorf("%d compactions x %d-byte checkpoint = %d bytes rewritten for %d appended, want at most 2x",
			n, rep.Meta.RawBytes, n*rep.Meta.RawBytes, appended)
	}
	allocs := testing.AllocsPerRun(50, func() { post(body) })
	if allocs > 100 {
		t.Errorf("a durable append allocates %.0f times, want at most 100", allocs)
	}
	t.Logf("%d appends, %d compactions, %d bytes appended, %.0f allocs per append", appends, n, appended, allocs)
}

// TestDurableIngestGrowingTable: an uncapped table compacts O(log) times
// — each checkpoint at least doubles the next threshold — and a restart
// restores exactly the rows that were appended.
func TestDurableIngestGrowingTable(t *testing.T) {
	dir := t.TempDir()
	m, st, post := durableIngest(t, dir, 0)
	body := ingestBody(t)
	const appends = 200
	for i := 0; i < appends; i++ {
		post(body)
	}
	stats := st.Stats()
	bound := int64(math.Ceil(math.Log2(float64(stats.AppendedBytes)/ingestCompactBytes))) + 2
	if stats.Compactions == 0 || stats.Compactions > bound {
		t.Errorf("%d compactions for %d appended bytes, want 1..%d", stats.Compactions, stats.AppendedBytes, bound)
	}
	t.Logf("%d compactions for %d appended bytes (bound %d)", stats.Compactions, stats.AppendedBytes, bound)
	if errs := m.Stats().LogErrors; errs != 0 {
		t.Fatalf("%d log errors", errs)
	}

	st2, err := sessionlog.Open(sessionlog.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	m2 := NewManager(core.DefaultConfig())
	defer m2.Close()
	m2.Catalog().RegisterLive(eventsTable(t, 0))
	m2.EnableDurability(st2)
	tables, rows, err := m2.RestoreTables()
	if err != nil || tables != 1 || rows != appends*1000 {
		t.Fatalf("restore: %d tables, %d rows, %v; want 1, %d", tables, rows, err, appends*1000)
	}
	live, _ := m.Catalog().Live("events")
	restored, _ := m2.Catalog().Live("events")
	sameCells(t, restored, live)
}

// sameCells fails unless two tables hold the same cells.
func sameCells(t *testing.T, got, want *storage.Table) {
	t.Helper()
	g, w := got.Snapshot(), want.Snapshot()
	if g.Rows != w.Rows {
		t.Fatalf("%d rows, want %d", g.Rows, w.Rows)
	}
	for c := 0; c < w.Matrix.NumCols(); c++ {
		gc, _ := g.Matrix.Column(c)
		wc, _ := w.Matrix.Column(c)
		for r := 0; r < w.Rows; r++ {
			if a, b := gc.Value(r), wc.Value(r); !sameCell(a, b) {
				t.Fatalf("row %d col %d is %+v, want %+v", r, c, a, b)
			}
		}
	}
}

// typedTable is a live table with one column of each type.
func typedTable(t *testing.T, name string) *storage.Table {
	tb, err := storage.NewTable(name,
		storage.NewEmptyColumn("i", storage.Int64),
		storage.NewEmptyColumn("f", storage.Float64),
		storage.NewEmptyColumn("b", storage.Bool),
		storage.NewEmptyColumn("s", storage.String))
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// TestTableSnapshotFrameIsJSON: the compacted snapshot frame is, byte for
// byte, json.Marshal of the append request whose Rows box every cell —
// the rendering replay's DecodeRequest reads — for every column type,
// escaped and non-ASCII strings and float spellings included.
func TestTableSnapshotFrameIsJSON(t *testing.T) {
	st, err := sessionlog.Open(sessionlog.Options{Dir: t.TempDir(), CompactBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	m := NewManager(core.DefaultConfig())
	defer m.Close()
	m.Catalog().RegisterLive(typedTable(t, "typed"))
	m.EnableDurability(st)
	rows := [][]any{
		{int64(-3), 0.1, true, "plain"},
		{int64(1) << 60, 1e-7, false, `<a href="x">&amp;</a>`},
		{int64(0), 1e21, true, "日本語 é ſ"},
		{int64(-1), math.Copysign(0, -1), false, "\x00\t \\"},
		{int64(math.MaxInt64), 123456789.125, true, ""},
		{int64(math.MinInt64), -math.MaxFloat64, false, "\xff"},
		{int64(7), 5e-324, true, "k07"},
		{int64(8), float64(1 << 53), false, "9007199254740993"},
	}
	if resp := m.HandleRequest(protocol.Request{V: protocol.Version, Op: protocol.OpAppend, Table: "typed", Rows: rows}); !resp.OK {
		t.Fatal(resp.Error)
	}
	want, err := json.Marshal(protocol.Request{V: protocol.Version, Op: protocol.OpAppend, Table: "typed", Rows: rows})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := st.LoadTable("typed")
	if err != nil {
		t.Fatal(err)
	}
	if st.Stats().Compactions != 1 || len(rep.Frames) != 1 {
		t.Fatalf("%d compactions, %d frames; want the one snapshot frame", st.Stats().Compactions, len(rep.Frames))
	}
	if got := rep.Frames[0].Payload; !bytes.Equal(got, want) {
		t.Fatalf("snapshot frame:\n got %s\nwant %s", got, want)
	}
}

// TestTableCompactionRefusesNaN: a NaN cell has no JSON spelling, so a
// snapshot holding one fails compaction — counted in LogErrors — and the
// log keeps the append it already holds.
func TestTableCompactionRefusesNaN(t *testing.T) {
	st, err := sessionlog.Open(sessionlog.Options{Dir: t.TempDir(), CompactBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	m := NewManager(core.DefaultConfig())
	defer m.Close()
	tb := typedTable(t, "typed")
	m.Catalog().RegisterLive(tb)
	m.EnableDurability(st)
	// A cell no wire request can carry, landed in process.
	if _, err := tb.AppendRow([]storage.Value{storage.IntValue(1), storage.FloatValue(math.NaN()),
		storage.BoolValue(true), storage.StringValue("nan")}); err != nil {
		t.Fatal(err)
	}
	if resp := m.HandleRequest(protocol.Request{V: protocol.Version, Op: protocol.OpAppend, Table: "typed",
		Rows: [][]any{{int64(2), 2.5, false, "ok"}}}); !resp.OK {
		t.Fatal(resp.Error)
	}
	stats := m.Stats()
	if stats.LogErrors != 1 || stats.LoggedRequests != 1 || stats.LogCompactions != 0 {
		t.Fatalf("logErrors %d, loggedRequests %d, logCompactions %d; want 1, 1, 0",
			stats.LogErrors, stats.LoggedRequests, stats.LogCompactions)
	}
	rep, err := st.LoadTable("typed")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Meta != nil || len(rep.Frames) != 1 {
		t.Fatalf("after the refused compaction: checkpoint %v, %d frames; want none and the append", rep.Meta != nil, len(rep.Frames))
	}
}
