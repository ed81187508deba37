package session

import (
	"os"
	"reflect"
	"testing"

	"dbtouch/internal/core"
	"dbtouch/internal/ftdc"
	"dbtouch/internal/storage"
)

// TestFTDCSampleSchema pins the metric vector's shape: parallel slices,
// stable schema across ticks (a capture chunk's column identity), and
// the gauges tracking what the manager actually does.
func TestFTDCSampleSchema(t *testing.T) {
	m := NewManager(core.Config{})
	defer m.Close()
	names, values := m.FTDCSample()
	if len(names) != len(values) || len(names) == 0 {
		t.Fatalf("%d names, %d values", len(names), len(values))
	}
	names2, _ := m.FTDCSample()
	if !reflect.DeepEqual(names, names2) {
		t.Fatal("schema changed between ticks")
	}
	idx := map[string]int{}
	for i, n := range names {
		idx[n] = i
	}
	for _, want := range []string{"ts_unix_ns", "sessions_live", "evictions", "kernel_bytes", "append_epochs"} {
		if _, ok := idx[want]; !ok {
			t.Fatalf("metric %q missing from schema %v", want, names)
		}
	}

	if _, err := m.Create("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("b"); err != nil {
		t.Fatal(err)
	}
	_, values = m.FTDCSample()
	if got := values[idx["sessions_live"]]; got != 2 {
		t.Fatalf("sessions_live = %d, want 2", got)
	}
	if values[idx["ts_unix_ns"]] <= 0 {
		t.Fatal("ts_unix_ns not populated")
	}
}

// TestFTDCSoak10kSessions is the flight-recorder acceptance gate: with
// 10k live sessions and live-table ingestion running, every tick the
// sampler records must come back from the on-disk capture exactly, and
// the capture directory must stay inside its retention bound for the
// whole soak.
func TestFTDCSoak10kSessions(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-session soak")
	}
	m := NewManager(core.Config{})
	defer m.Close()
	lt, err := storage.NewTable("events", storage.NewIntColumn("v", nil))
	if err != nil {
		t.Fatal(err)
	}
	m.Catalog().RegisterLive(lt)
	const sessions = 10000
	for i := 0; i < sessions; i++ {
		if _, err := m.Create(sessionName(i)); err != nil {
			t.Fatal(err)
		}
	}

	dir := t.TempDir()
	// The budget is tiny because the encoding is effective: near-constant
	// gauges cost ~a byte a tick, so even a 400-tick soak is only a few
	// KB — the budget must sit below that for retention to engage.
	opts := ftdc.Options{Dir: dir, MaxChunkSamples: 25, MaxFileBytes: 1 << 8, RetainBytes: 1 << 10}
	rec, err := ftdc.NewRecorder(opts)
	if err != nil {
		t.Fatal(err)
	}
	bound := opts.RetainBytes + opts.MaxFileBytes + 1<<10 // budget + live file + one chunk of slack

	// Soak: many ticks against the live manager, with ingestion advancing
	// the storage gauges between ticks. Retention must engage mid-soak,
	// and the directory must never exceed its bound even transiently.
	const ticks = 400
	var want [][]int64
	for i := 0; i < ticks; i++ {
		if _, err := m.Append("events", [][]storage.Value{{storage.IntValue(int64(i))}}); err != nil {
			t.Fatal(err)
		}
		names, values := m.FTDCSample()
		want = append(want, append([]int64(nil), values...))
		if err := rec.Record(names, values); err != nil {
			t.Fatal(err)
		}
		if i%50 == 0 {
			if size := dirSize(t, dir); size > bound {
				t.Fatalf("tick %d: capture dir %d bytes exceeds bound %d", i, size, bound)
			}
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if size := dirSize(t, dir); size > bound {
		t.Fatalf("final capture dir %d bytes exceeds bound %d", size, bound)
	}
	if rec.Stats().FilesRemoved == 0 {
		t.Fatal("soak never exercised retention")
	}

	// Exact round-trip of whatever retention kept: decoded rows must be a
	// contiguous tail of the recorded ticks, bit-for-bit.
	chunks, err := ftdc.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got [][]int64
	for _, c := range chunks {
		for s := 0; s < c.SampleCount(); s++ {
			row := make([]int64, len(c.Columns))
			for mi := range c.Columns {
				row[mi] = c.Columns[mi][s]
			}
			got = append(got, row)
		}
	}
	if len(got) == 0 {
		t.Fatal("capture decoded to zero ticks")
	}
	tail := want[len(want)-len(got):]
	if !reflect.DeepEqual(got, tail) {
		t.Fatalf("decoded %d ticks diverge from the recorded tail", len(got))
	}

	// The sample vector must reflect the soak's scale exactly.
	names, _ := m.FTDCSample()
	liveIdx := -1
	for i, n := range names {
		if n == "sessions_live" {
			liveIdx = i
		}
	}
	last := got[len(got)-1]
	if last[liveIdx] != sessions {
		t.Fatalf("captured sessions_live = %d, want %d", last[liveIdx], sessions)
	}
}

func sessionName(i int) string {
	// Fixed-width ids keep map iteration and stats sorting cheap to reason
	// about in the soak.
	const digits = "0123456789"
	b := []byte{'s', 0, 0, 0, 0, 0}
	for p := 5; p >= 1; p-- {
		b[p] = digits[i%10]
		i /= 10
	}
	return string(b)
}

func dirSize(t *testing.T, dir string) int64 {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			continue
		}
		total += info.Size()
	}
	return total
}
