package sessionlog

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func payloadFor(i int) []byte {
	return []byte(fmt.Sprintf(`{"v":2,"op":"perform","session":"u","n":%d}`, i))
}

func mustAppendN(t *testing.T, st *Store, id string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := st.AppendSession(id, payloadFor(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

func assertHistory(t *testing.T, rep *Replay, n int) {
	t.Helper()
	if len(rep.Frames) != n {
		t.Fatalf("replay has %d frames, want %d", len(rep.Frames), n)
	}
	for i, fr := range rep.Frames {
		if fr.Seq != uint64(i+1) {
			t.Fatalf("frame %d has seq %d, want %d", i, fr.Seq, i+1)
		}
		if string(fr.Payload) != string(payloadFor(i)) {
			t.Fatalf("frame %d payload = %q, want %q", i, fr.Payload, payloadFor(i))
		}
	}
}

func TestAppendLoadRoundTrip(t *testing.T) {
	st, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	mustAppendN(t, st, "u", 10)
	rep, err := st.LoadSession("u")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Torn {
		t.Fatal("clean log reported torn")
	}
	assertHistory(t, rep, 10)
	if rep.LastSeq != 10 {
		t.Fatalf("LastSeq = %d, want 10", rep.LastSeq)
	}
}

func TestLoadMissingSessionIsErrNoLog(t *testing.T) {
	st, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.LoadSession("ghost"); err == nil || !errors.Is(err, ErrNoLog) {
		t.Fatalf("load of missing session = %v, want ErrNoLog", err)
	}
}

func TestCompactionPreservesHistoryAndBoundsTail(t *testing.T) {
	st, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	mustAppendN(t, st, "u", 20)
	meta := CheckpointMeta{VClockNS: 12345, Objects: map[string]int{"col": 1}}
	if err := st.CompactSession("u", meta); err != nil {
		t.Fatal(err)
	}
	if _, tail := st.SessionBytes("u"); tail != 0 {
		t.Fatalf("tail after compaction = %d bytes, want 0", tail)
	}
	// History survives the rewrite, and the meta round-trips.
	rep, err := st.LoadSession("u")
	if err != nil {
		t.Fatal(err)
	}
	assertHistory(t, rep, 20)
	if rep.Meta == nil || rep.Meta.VClockNS != 12345 || rep.Meta.Objects["col"] != 1 {
		t.Fatalf("checkpoint meta did not round-trip: %+v", rep.Meta)
	}
	if rep.Meta.LastSeq != 20 || rep.Meta.Frames != 20 {
		t.Fatalf("checkpoint coverage = seq %d / %d frames, want 20/20", rep.Meta.LastSeq, rep.Meta.Frames)
	}
	// Appends after compaction continue the sequence.
	for i := 20; i < 25; i++ {
		if _, err := st.AppendSession("u", payloadFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	rep, err = st.LoadSession("u")
	if err != nil {
		t.Fatal(err)
	}
	assertHistory(t, rep, 25)
	// A second compaction folds the tail in.
	if err := st.CompactSession("u", CheckpointMeta{}); err != nil {
		t.Fatal(err)
	}
	rep, err = st.LoadSession("u")
	if err != nil {
		t.Fatal(err)
	}
	assertHistory(t, rep, 25)
	if st.Stats().Compactions != 2 {
		t.Fatalf("Compactions = %d, want 2", st.Stats().Compactions)
	}
}

// TestCrashBetweenCheckpointAndTruncate simulates the one non-atomic
// window in compaction: the checkpoint renamed into place but the log
// not yet truncated. The duplicate frames must be skipped by sequence
// number, not replayed twice.
func TestCrashBetweenCheckpointAndTruncate(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mustAppendN(t, st, "u", 8)
	logPath := filepath.Join(dir, "s-u.log")
	preCompact, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CompactSession("u", CheckpointMeta{}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	// Put the pre-compaction log back: exactly what the crash window
	// leaves behind.
	if err := os.WriteFile(logPath, preCompact, 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	rep, err := st2.LoadSession("u")
	if err != nil {
		t.Fatal(err)
	}
	assertHistory(t, rep, 8)
	// And the appender reopens past the duplicates.
	if _, err := st2.AppendSession("u", payloadFor(8)); err != nil {
		t.Fatal(err)
	}
	rep, err = st2.LoadSession("u")
	if err != nil {
		t.Fatal(err)
	}
	assertHistory(t, rep, 9)
}

func TestRemoveSessionForgetsHistory(t *testing.T) {
	st, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	mustAppendN(t, st, "u", 4)
	if err := st.CompactSession("u", CheckpointMeta{}); err != nil {
		t.Fatal(err)
	}
	if err := st.RemoveSession("u"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.LoadSession("u"); !errors.Is(err, ErrNoLog) {
		t.Fatalf("load after remove = %v, want ErrNoLog", err)
	}
	// A re-created session starts a fresh history at seq 1.
	mustAppendN(t, st, "u", 2)
	rep, err := st.LoadSession("u")
	if err != nil {
		t.Fatal(err)
	}
	assertHistory(t, rep, 2)
}

// TestAppenderFDCache proves the open-file LRU: more sessions than
// MaxOpenLogs appended round-robin stay correct while only MaxOpenLogs
// descriptors are cached (the 10k-session soak depends on this).
func TestAppenderFDCache(t *testing.T) {
	st, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const sessions, rounds = MaxOpenLogs + 7, 5
	for r := 0; r < rounds; r++ {
		for s := 0; s < sessions; s++ {
			id := fmt.Sprintf("u%d", s)
			if _, err := st.AppendSession(id, payloadFor(r)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if open := st.Stats().OpenLogs; open != MaxOpenLogs {
		t.Fatalf("OpenLogs = %d, want %d", open, MaxOpenLogs)
	}
	for s := 0; s < sessions; s++ {
		rep, err := st.LoadSession(fmt.Sprintf("u%d", s))
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Frames) != rounds || rep.LastSeq != rounds {
			t.Fatalf("session u%d: %d frames last seq %d, want %d", s, len(rep.Frames), rep.LastSeq, rounds)
		}
	}
}

// TestRetentionDropsOldestParked pins the rotation contract: past the
// byte budget the oldest parked sessions lose their files first, while
// protected (live) sessions survive.
func TestRetentionDropsOldestParked(t *testing.T) {
	protected := map[string]bool{"live": true}
	st, err := Open(Options{Dir: t.TempDir(), RetainBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.SetProtect(func(id string) bool { return protected[id] })
	big := make([]byte, 1024)
	for i := range big {
		big[i] = byte(i)
	}
	for s := 0; s < 8; s++ {
		id := fmt.Sprintf("old%d", s)
		for i := 0; i < 3; i++ {
			if _, err := st.AppendSession(id, big); err != nil {
				t.Fatal(err)
			}
		}
		st.Park(id)
	}
	// The protected session appends last, pushing well past the budget.
	for i := 0; i < 8; i++ {
		if _, err := st.AppendSession("live", big); err != nil {
			t.Fatal(err)
		}
	}
	if st.Stats().DroppedSessions == 0 {
		t.Fatal("retention dropped nothing past the budget")
	}
	if _, err := st.LoadSession("live"); err != nil {
		t.Fatalf("protected session was dropped: %v", err)
	}
	// Survivors must fit the budget modulo the protected session and
	// whatever is still open for append.
	var total int64
	entries, _ := os.ReadDir(st.dir)
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			total += info.Size()
		}
	}
	liveBytes, _ := st.SessionBytes("live")
	if total-liveBytes > 8<<10 {
		t.Fatalf("unprotected leftovers = %d bytes, budget 8192", total-liveBytes)
	}
}

// TestTableLogCompaction: a compacted table is a checkpoint holding the
// one snapshot frame, at the last appended sequence number, beside an
// empty log.
func TestTableLogCompaction(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 6; i++ {
		if _, err := st.AppendTable("events", payloadFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	replacement := []byte(`{"v":2,"op":"append","table":"events","rows":[[1],[2]]}`)
	if err := st.CompactTable("events", replacement); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(filepath.Join(dir, "t-events.log")); err != nil || fi.Size() != 0 {
		t.Fatalf("log after compaction: %v, want an empty file", err)
	}
	rep, err := st.LoadTable("events")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Frames) != 1 || string(rep.Frames[0].Payload) != string(replacement) {
		t.Fatalf("compacted table log = %d frames, want the single replacement", len(rep.Frames))
	}
	if rep.LastSeq != 6 || rep.Frames[0].Seq != 6 {
		t.Fatalf("replacement seq = %d, want 6 (continuity preserved)", rep.LastSeq)
	}
	if m := rep.Meta; m == nil || m.Table != "events" || m.Frames != 1 || m.RawBytes != int64(frameHeader+len(replacement)) {
		t.Fatalf("checkpoint meta = %+v, want table events, 1 frame of %d raw bytes", m, frameHeader+len(replacement))
	}
	if st.Stats().Compactions != 1 {
		t.Fatalf("Compactions = %d, want 1", st.Stats().Compactions)
	}
	// Appends continue the sequence after the rewrite.
	if _, err := st.AppendTable("events", payloadFor(6)); err != nil {
		t.Fatal(err)
	}
	rep, err = st.LoadTable("events")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Frames) != 2 || rep.LastSeq != 7 {
		t.Fatalf("post-compaction append: %d frames last seq %d, want 2/7", len(rep.Frames), rep.LastSeq)
	}
	if got := st.Tables(); len(got) != 1 || got[0] != "events" {
		t.Fatalf("Tables() = %v", got)
	}
}

func TestSessionsListsEscapedIDs(t *testing.T) {
	st, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ids := []string{"plain", "user/42", "sp ace", "pct%sign"}
	for _, id := range ids {
		if _, err := st.AppendSession(id, payloadFor(0)); err != nil {
			t.Fatalf("append %q: %v", id, err)
		}
	}
	got := st.Sessions()
	if len(got) != len(ids) {
		t.Fatalf("Sessions() = %v, want %d ids", got, len(ids))
	}
	want := map[string]bool{}
	for _, id := range ids {
		want[id] = true
	}
	for _, id := range got {
		if !want[id] {
			t.Fatalf("Sessions() returned unknown id %q (escaping does not round-trip)", id)
		}
		rep, err := st.LoadSession(id)
		if err != nil || len(rep.Frames) != 1 {
			t.Fatalf("load %q after escape round-trip: %v", id, err)
		}
	}
}
