package protocol_test

import (
	"errors"
	"net/http/httptest"
	"testing"

	"dbtouch"
	"dbtouch/internal/gesture"
	"dbtouch/internal/protocol"
	"dbtouch/internal/sessionlog"
)

// gestureTap builds a tap description with no target: Client.Perform
// names the object and the server stamps the kernel id.
func gestureTap(frac float64) gesture.Gesture { return gesture.NewTap(0, frac) }

// Resume over real HTTP: a plain client sees an evicted session as a
// Gone failure and brings it back itself with OpResume.

// newDurableServer starts an HTTP server over a durable session
// manager and returns its client.
func newDurableServer(t *testing.T) (*dbtouch.DB, *protocol.Client) {
	t.Helper()
	db := newInstance(t)
	st, err := sessionlog.Open(sessionlog.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	db.Manager().EnableDurability(st)
	srv := httptest.NewServer(protocol.NewHTTPHandler(db.Manager()))
	t.Cleanup(func() {
		srv.Close()
		db.Manager().Close()
		st.Close()
	})
	return db, &protocol.Client{Base: srv.URL}
}

// TestClientResumeGone: a request to an evicted session fails with Gone
// until the client resumes it; resuming a session that has no log
// surfaces the server failure, and the response marks it gone for good.
func TestClientResumeGone(t *testing.T) {
	db, c := newDurableServer(t)
	if err := c.Open("s"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateColumn("s", "obj", "t", "v", 2, 2, 2, 10); err != nil {
		t.Fatal(err)
	}
	tap := gestureTap(0.5)
	if !db.Manager().Evict("s") {
		t.Fatal("evict failed")
	}
	perform := protocol.Request{Op: protocol.OpPerform, Session: "s", Object: "obj", Gesture: &tap}
	if resp, err := c.Do(perform); err == nil || !resp.Gone {
		t.Fatalf("perform after eviction: want Gone failure, got resp=%+v err=%v", resp, err)
	}
	if _, err := c.Do(protocol.Request{Op: protocol.OpResume, Session: "s"}); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if frames, err := c.Perform("s", "obj", tap); err != nil || len(frames) == 0 {
		t.Fatalf("perform after resume: %d frames, err=%v", len(frames), err)
	}

	resp, err := c.Do(protocol.Request{Op: protocol.OpResume, Session: "never-existed"})
	if err == nil || !resp.Gone {
		t.Fatalf("want Gone failure, got resp=%+v err=%v", resp, err)
	}
	if errors.Is(err, protocol.ErrOverloaded) {
		t.Fatal("no-log resume misreported as overload")
	}
}
