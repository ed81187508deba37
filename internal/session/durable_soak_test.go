package session

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"dbtouch/internal/gesture"
	"dbtouch/internal/protocol"
	"dbtouch/internal/sessionlog"
)

// TestDurableSoak10kSessions extends the 10k-session contract to the
// durable manager: 10k wire-opened sessions (each open logged, cycling
// the store's bounded fd cache), parked sessions holding no goroutines
// and no open log files, a hot subset driven hard enough to force
// checkpoint compaction, the whole log directory inside its retention
// budget, and a victim of that scale still resumable at the end.
func TestDurableSoak10kSessions(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-session soak")
	}
	dir := t.TempDir()
	st, err := sessionlog.Open(sessionlog.Options{
		Dir:          dir,
		CompactBytes: 4 << 10,
		RetainBytes:  4 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	m := testManager(t, 100_000)
	defer m.Close()
	m.EnableDurability(st)

	baseGoroutines := runtime.NumGoroutine()
	const sessions = 10_000
	for i := 0; i < sessions; i++ {
		resp := m.HandleRequest(protocol.Request{V: protocol.Version, Op: protocol.OpOpen, Session: sessionName(i)})
		if !resp.OK {
			t.Fatalf("open %d: %s", i, resp.Error)
		}
	}
	if m.Len() != sessions {
		t.Fatalf("%d live sessions, want %d", m.Len(), sessions)
	}
	// Wire sessions are synchronous: 10k of them parked must cost no
	// goroutines beyond test noise.
	if g := runtime.NumGoroutine(); g > baseGoroutines+10 {
		t.Fatalf("%d goroutines after 10k durable opens (baseline %d)", g, baseGoroutines)
	}
	// The fd cache, not the session count, bounds open log files.
	if open := st.Stats().OpenLogs; open > 64 {
		t.Fatalf("%d open log files, cache bound is 64", open)
	}

	// Hot subset: enough gestures per session to roll each log through
	// several compactions.
	const hot = 64
	tap := gesture.NewTap(0, 0.5)
	for i := 0; i < hot; i++ {
		sid := sessionName(i)
		if resp := m.HandleRequest(protocol.Request{
			V: protocol.Version, Op: protocol.OpCreate, Session: sid, Object: "obj",
			Create: &protocol.CreateSpec{Table: "t", Column: "v", X: 2, Y: 2, W: 2, H: 10},
		}); !resp.OK {
			t.Fatalf("create %s: %s", sid, resp.Error)
		}
		for j := 0; j < 120; j++ {
			if resp := m.HandleRequest(protocol.Request{
				V: protocol.Version, Op: protocol.OpPerform, Session: sid, Object: "obj", Gesture: &tap,
			}); !resp.OK {
				t.Fatalf("perform %s/%d: %s", sid, j, resp.Error)
			}
		}
	}

	stats := m.Stats()
	if stats.LogErrors != 0 {
		t.Fatalf("%d log errors during soak", stats.LogErrors)
	}
	if stats.LogCompactions == 0 {
		t.Fatal("hot sessions never compacted; per-session tails unbounded")
	}
	// Per-session on-disk bytes stay bounded: a compacted hot session's
	// tail sits under the threshold plus one frame's slack.
	for i := 0; i < hot; i++ {
		if _, tail := st.SessionBytes(sessionName(i)); tail > (4<<10)+1024 {
			t.Fatalf("session %s tail %d bytes exceeds compaction bound", sessionName(i), tail)
		}
	}
	if size := dirSize(t, dir); size > (4<<20)+(1<<20) {
		t.Fatalf("log dir %d bytes, retention budget 4MiB (+1MiB slack for protected live sessions)", size)
	}

	// A session of that fleet dies and comes back.
	victim := sessionName(3)
	if !m.Evict(victim) {
		t.Fatal("evict failed")
	}
	n, err := m.Resume(victim)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatalf("resume of %s replayed nothing", victim)
	}
	if resp := m.HandleRequest(protocol.Request{
		V: protocol.Version, Op: protocol.OpPerform, Session: victim, Object: "obj", Gesture: &tap,
	}); !resp.OK {
		t.Fatalf("perform after resume: %s", resp.Error)
	}
}

// TestDurableRetentionDropsColdHistories pins the disk bound under
// pressure: with a tight retention budget and far more dead session
// histories than it can hold, the store deletes the oldest parked logs
// while live sessions' histories survive.
func TestDurableRetentionDropsColdHistories(t *testing.T) {
	dir := t.TempDir()
	st, err := sessionlog.Open(sessionlog.Options{Dir: dir, RetainBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	m := testManager(t, 10_000)
	defer m.Close()
	m.EnableDurability(st)

	idle := protocol.Request{V: protocol.Version, Op: protocol.OpIdle, Idle: time.Second}
	for i := 0; i < 200; i++ {
		sid := fmt.Sprintf("cold-%03d", i)
		if resp := m.HandleRequest(protocol.Request{V: protocol.Version, Op: protocol.OpOpen, Session: sid}); !resp.OK {
			t.Fatalf("open: %s", resp.Error)
		}
		for j := 0; j < 20; j++ {
			req := idle
			req.Session = sid
			if resp := m.HandleRequest(req); !resp.OK {
				t.Fatalf("idle: %s", resp.Error)
			}
		}
		m.Evict(sid) // parks the history; it is now retention fodder
	}
	// One live session: its history must survive any pressure.
	if resp := m.HandleRequest(protocol.Request{V: protocol.Version, Op: protocol.OpOpen, Session: "live"}); !resp.OK {
		t.Fatalf("open live: %s", resp.Error)
	}

	if st.Stats().DroppedSessions == 0 {
		t.Fatal("retention never engaged")
	}
	if size := dirSize(t, dir); size > (32<<10)+(8<<10) {
		t.Fatalf("log dir %d bytes despite 32KiB retention budget", size)
	}
	if _, err := m.Resume("live"); err != nil {
		t.Fatalf("live session's history was dropped: %v", err)
	}
}
