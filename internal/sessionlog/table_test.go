package sessionlog

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// tablePayload is an append request of n bytes or more, distinct per i.
func tablePayload(i, n int) []byte {
	p := append([]byte(nil), payloadFor(i)...)
	return append(p, bytes.Repeat([]byte{' '}, max(0, n-len(p)))...)
}

func loadTableFrames(t *testing.T, st *Store) []Frame {
	t.Helper()
	rep, err := st.LoadTable("events")
	if err != nil {
		t.Fatal(err)
	}
	return rep.Frames
}

// TestTableLegacyLayout: a table log compacted the way earlier releases
// did it — the snapshot as a frame inside t-events.log, no checkpoint —
// loads as it is, and one compaction turns it into a checkpoint plus an
// empty log without breaking the sequence.
func TestTableLegacyLayout(t *testing.T) {
	dir := t.TempDir()
	snapshot := []byte(`{"v":2,"op":"append","table":"events","rows":[[1],[2],[3]]}`)
	legacy := AppendFrame(nil, 6, snapshot)
	legacy = AppendFrame(legacy, 7, payloadFor(7))
	legacy = AppendFrame(legacy, 8, payloadFor(8))
	logPath := filepath.Join(dir, "t-events.log")
	if err := os.WriteFile(logPath, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	want := []Frame{{6, snapshot}, {7, payloadFor(7)}, {8, payloadFor(8)}}
	if got := loadTableFrames(t, st); !sameFrames(got, want) {
		t.Fatalf("legacy layout loads to %d frames, want the 3 it holds", len(got))
	}

	// Appending continues at 9, and with no checkpoint the tail is measured
	// against CompactBytes alone.
	if _, err := st.AppendTable("events", payloadFor(9)); err != nil {
		t.Fatal(err)
	}
	again := []byte(`{"v":2,"op":"append","table":"events","rows":[[1],[2],[3],[4]]}`)
	if err := st.CompactTable("events", again); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(logPath); err != nil || fi.Size() != 0 {
		t.Fatalf("log after compaction: %v, want an empty file", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "t-events.ckpt")); err != nil {
		t.Fatalf("no checkpoint after compaction: %v", err)
	}
	if _, err := st.AppendTable("events", payloadFor(10)); err != nil {
		t.Fatal(err)
	}
	want = []Frame{{9, again}, {10, payloadFor(10)}}
	if got := loadTableFrames(t, st); !sameFrames(got, want) {
		t.Fatalf("after compaction: %+v, want the snapshot at 9 and the append at 10", got)
	}
}

// TestTableCompactionCrashWindow: a crash after the checkpoint's rename
// and before the log's truncate leaves the old log beside the new
// checkpoint. That directory loads to the frames a completed compaction
// does, and appending continues the sequence.
func TestTableCompactionCrashWindow(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := st.AppendTable("events", payloadFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	logPath := filepath.Join(dir, "t-events.log")
	before, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := []byte(`{"v":2,"op":"append","table":"events","rows":[[5]]}`)
	if err := st.CompactTable("events", snapshot); err != nil {
		t.Fatal(err)
	}
	completed := loadTableFrames(t, st)
	st.Close()
	if err := os.WriteFile(logPath, before, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := loadTableFrames(t, st2); !sameFrames(got, completed) || !sameFrames(got, []Frame{{5, snapshot}}) {
		t.Fatalf("crash window loads to %+v, want the completed compaction's %+v", got, completed)
	}
	if _, err := st2.AppendTable("events", payloadFor(6)); err != nil {
		t.Fatal(err)
	}
	if got := loadTableFrames(t, st2); !sameFrames(got, []Frame{{5, snapshot}, {6, payloadFor(6)}}) {
		t.Fatalf("append after the crash window: %+v", got)
	}
}

// TestTableCompactionThresholdGrows: a table log is due once its tail
// reaches max(CompactBytes, the checkpoint's RawBytes), and a reopened
// store reads that threshold back from the checkpoint header.
func TestTableCompactionThresholdGrows(t *testing.T) {
	dir := t.TempDir()
	const compact, frame = 1000, 200 // bytes; frame includes the header
	st, err := Open(Options{Dir: dir, CompactBytes: compact})
	if err != nil {
		t.Fatal(err)
	}
	// appendsUntilDue appends frame-byte frames and counts them up to and
	// including the first one reported due.
	seq := 0
	appendsUntilDue := func(st *Store) int {
		for n := 1; n <= 100; n++ {
			seq++
			due, err := st.AppendTable("events", tablePayload(seq, frame-frameHeader))
			if err != nil {
				t.Fatal(err)
			}
			if due {
				return n
			}
		}
		t.Fatal("the table log never came due")
		return 0
	}
	if n := appendsUntilDue(st); n != compact/frame {
		t.Fatalf("first compaction due after %d appends, want %d (CompactBytes)", n, compact/frame)
	}
	snapshot := tablePayload(0, 3000-frameHeader) // 3000 raw bytes
	if err := st.CompactTable("events", snapshot); err != nil {
		t.Fatal(err)
	}
	if n := appendsUntilDue(st); n != 3000/frame {
		t.Fatalf("after a 3000-byte checkpoint, due after %d appends, want %d", n, 3000/frame)
	}
	if err := st.CompactTable("events", snapshot); err != nil {
		t.Fatal(err)
	}
	st.Close()
	st2, err := Open(Options{Dir: dir, CompactBytes: compact})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if n := appendsUntilDue(st2); n != 3000/frame {
		t.Fatalf("reopened, due after %d appends, want %d from the checkpoint header", n, 3000/frame)
	}
}
