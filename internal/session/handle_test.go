package session

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dbtouch/internal/core"
	"dbtouch/internal/gesture"
	"dbtouch/internal/protocol"
	"dbtouch/internal/storage"
)

// handleManager builds a manager with one registered 100k-row table "t"
// (int column "v").
func handleManager(t *testing.T) *Manager {
	t.Helper()
	m := NewManager(core.Config{})
	vals := make([]int64, 100000)
	for i := range vals {
		vals[i] = int64(i)
	}
	matrix, err := storage.NewMatrix("t", storage.NewIntColumn("v", vals))
	if err != nil {
		t.Fatal(err)
	}
	m.Catalog().Register(matrix)
	return m
}

func mustOK(t *testing.T, m *Manager, req protocol.Request) protocol.Response {
	t.Helper()
	req.V = protocol.Version
	resp := m.HandleRequest(req)
	if !resp.OK {
		t.Fatalf("%s failed: %s", req.Op, resp.Error)
	}
	return resp
}

func mustFail(t *testing.T, m *Manager, req protocol.Request, wantSub string) {
	t.Helper()
	if req.V == 0 {
		req.V = protocol.Version
	}
	resp := m.HandleRequest(req)
	if resp.OK {
		t.Fatalf("%s should have failed", req.Op)
	}
	if !strings.Contains(resp.Error, wantSub) {
		t.Fatalf("%s error = %q, want substring %q", req.Op, resp.Error, wantSub)
	}
}

func TestHandleRequestLifecycle(t *testing.T) {
	m := handleManager(t)
	defer m.Close()

	mustOK(t, m, protocol.Request{Op: protocol.OpOpen, Session: "u1"})
	mustFail(t, m, protocol.Request{Op: protocol.OpOpen, Session: "u1"}, "already exists")
	mustFail(t, m, protocol.Request{Op: protocol.OpOpen}, "missing session")

	created := mustOK(t, m, protocol.Request{
		Op: protocol.OpCreate, Session: "u1", Object: "col",
		Create: &protocol.CreateSpec{Table: "t", Column: "v", X: 2, Y: 2, W: 2, H: 10},
	})
	if created.ObjectID == 0 {
		t.Fatal("create returned no object id")
	}
	k := 5
	mustOK(t, m, protocol.Request{
		Op: protocol.OpConfigure, Session: "u1", Object: "col",
		Actions: &protocol.ActionsSpec{Mode: "summary", Agg: "avg", K: &k},
	})

	g := gesture.NewSlide(0, 0, 1, time.Second)
	performed := mustOK(t, m, protocol.Request{Op: protocol.OpPerform, Session: "u1", Object: "col", Gesture: &g})
	if len(performed.Results) == 0 {
		t.Fatal("perform produced no frames")
	}
	if performed.Results[0].Kind != "summary" {
		t.Fatalf("frame kind = %q, want summary", performed.Results[0].Kind)
	}

	mustOK(t, m, protocol.Request{Op: protocol.OpIdle, Session: "u1", Idle: time.Second})
	stats := mustOK(t, m, protocol.Request{Op: protocol.OpStats})
	if stats.Stats == nil || stats.Stats.Live != 1 || len(stats.Stats.Sessions) != 1 {
		t.Fatalf("stats = %+v, want 1 live session", stats.Stats)
	}

	mustOK(t, m, protocol.Request{Op: protocol.OpEvict, Session: "u1"})
	mustFail(t, m, protocol.Request{Op: protocol.OpEvict, Session: "u1"}, "not found")
	mustFail(t, m, protocol.Request{Op: protocol.OpPerform, Session: "u1", Object: "col", Gesture: &g}, "not found")
}

func TestHandleRequestErrors(t *testing.T) {
	m := handleManager(t)
	defer m.Close()
	mustOK(t, m, protocol.Request{Op: protocol.OpOpen, Session: "u"})

	// Version gate: zero and future versions are rejected outright.
	if resp := m.HandleRequest(protocol.Request{Op: protocol.OpStats}); resp.OK {
		t.Fatal("version 0 must be rejected")
	}
	if resp := m.HandleRequest(protocol.Request{V: protocol.Version + 1, Op: protocol.OpStats}); resp.OK {
		t.Fatal("future version must be rejected")
	}

	mustFail(t, m, protocol.Request{Op: "warp", Session: "u"}, "unknown op")
	mustFail(t, m, protocol.Request{Op: protocol.OpCreate, Session: "u", Object: "o",
		Create: &protocol.CreateSpec{Table: "missing", Column: "v", W: 2, H: 10}}, "missing")
	mustFail(t, m, protocol.Request{Op: protocol.OpCreate, Session: "u", Object: "o",
		Create: &protocol.CreateSpec{Table: "t", Column: "nope", W: 2, H: 10}}, "no column")
	mustFail(t, m, protocol.Request{Op: protocol.OpCreate, Session: "u",
		Create: &protocol.CreateSpec{Table: "t", Column: "v", W: 2, H: 10}}, "missing object name")
	mustFail(t, m, protocol.Request{Op: protocol.OpCreate, Session: "u", Object: "o"}, "missing spec")

	mustOK(t, m, protocol.Request{Op: protocol.OpCreate, Session: "u", Object: "col",
		Create: &protocol.CreateSpec{Table: "t", Column: "v", X: 2, Y: 2, W: 2, H: 10}})
	mustFail(t, m, protocol.Request{Op: protocol.OpConfigure, Session: "u", Object: "ghost",
		Actions: &protocol.ActionsSpec{Mode: "scan"}}, "unknown object")
	mustFail(t, m, protocol.Request{Op: protocol.OpConfigure, Session: "u", Object: "col",
		Actions: &protocol.ActionsSpec{Mode: "warp"}}, "unknown mode")
	mustFail(t, m, protocol.Request{Op: protocol.OpConfigure, Session: "u", Object: "col",
		Actions: &protocol.ActionsSpec{Where: []protocol.FilterSpec{{Column: "v", Op: "~", Value: 1.0}}}}, "unknown comparison")
	mustFail(t, m, protocol.Request{Op: protocol.OpConfigure, Session: "u", Object: "col"}, "missing actions")

	g := gesture.NewZoom(0, 0)
	mustFail(t, m, protocol.Request{Op: protocol.OpPerform, Session: "u", Object: "col", Gesture: &g}, "factor")
	mustFail(t, m, protocol.Request{Op: protocol.OpPerform, Session: "u", Object: "col"}, "missing gesture")

	// Pin before any touches: no hot region yet.
	mustFail(t, m, protocol.Request{Op: protocol.OpPin, Session: "u", Object: "col", As: "hot",
		Create: &protocol.CreateSpec{X: 9, Y: 2, W: 2, H: 6}}, "no hot regions")
	mustFail(t, m, protocol.Request{Op: protocol.OpPin, Session: "u", Object: "col",
		Create: &protocol.CreateSpec{X: 9, Y: 2, W: 2, H: 6}}, "missing name")
}

func TestSubscribeSessionStreamsPerformResults(t *testing.T) {
	m := handleManager(t)
	defer m.Close()
	mustOK(t, m, protocol.Request{Op: protocol.OpOpen, Session: "u"})
	mustOK(t, m, protocol.Request{Op: protocol.OpCreate, Session: "u", Object: "col",
		Create: &protocol.CreateSpec{Table: "t", Column: "v", X: 2, Y: 2, W: 2, H: 10}})

	stream, err := m.SubscribeSession("u", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	if _, err := m.SubscribeSession("ghost", 0); err == nil {
		t.Fatal("subscribing to an unknown session must error")
	}

	g := gesture.NewSlide(0, 0, 1, time.Second)
	resp := mustOK(t, m, protocol.Request{Op: protocol.OpPerform, Session: "u", Object: "col", Gesture: &g})
	for i := range resp.Results {
		r, ok := stream.TryNext()
		if !ok {
			t.Fatalf("stream ended after %d of %d results", i, len(resp.Results))
		}
		if protocol.FrameResult(r) != resp.Results[i] {
			t.Fatalf("frame %d: stream and response disagree", i)
		}
	}
	if _, ok := stream.TryNext(); ok {
		t.Fatal("stream has more results than the response")
	}
}

func TestEvictClosesSubscribedStreams(t *testing.T) {
	m := handleManager(t)
	defer m.Close()
	mustOK(t, m, protocol.Request{Op: protocol.OpOpen, Session: "u"})
	stream, err := m.SubscribeSession("u", 0)
	if err != nil {
		t.Fatal(err)
	}
	blocked := make(chan bool, 1)
	go func() {
		_, ok := stream.Next() // blocks until eviction closes the stream
		blocked <- ok
	}()
	mustOK(t, m, protocol.Request{Op: protocol.OpEvict, Session: "u"})
	select {
	case ok := <-blocked:
		if ok {
			t.Fatal("Next returned a result from an evicted session")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next still blocked after eviction — stream never closed")
	}
	if !stream.Closed() {
		t.Fatal("eviction must close subscribed streams")
	}
}

// TestCloseStreamsEndsStreamHandlers: CloseStreams is the server-side
// stop for /stream — an attached client receives every frame already
// emitted, then a clean end of body, and the handler returns (so
// http.Server.Shutdown and httptest.Server.Close need not wait for the
// client to hang up). The session itself stays usable.
func TestCloseStreamsEndsStreamHandlers(t *testing.T) {
	m := handleManager(t)
	defer m.Close()
	mustOK(t, m, protocol.Request{Op: protocol.OpOpen, Session: "u"})
	mustOK(t, m, protocol.Request{Op: protocol.OpCreate, Session: "u", Object: "col",
		Create: &protocol.CreateSpec{Table: "t", Column: "v", X: 2, Y: 2, W: 2, H: 10}})
	srv := httptest.NewServer(protocol.NewHTTPHandler(m))
	defer srv.Close() // would hang on a handler still blocked in Next

	httpResp, err := http.Get(srv.URL + "/stream?session=u")
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	// Response headers are flushed after the subscription exists, so the
	// perform below is guaranteed to reach the stream.
	g := gesture.NewSlide(0, 0, 1, time.Second)
	resp := mustOK(t, m, protocol.Request{Op: protocol.OpPerform, Session: "u", Object: "col", Gesture: &g})
	if len(resp.Results) == 0 {
		t.Fatal("perform produced no results")
	}
	m.CloseStreams()

	body, err := io.ReadAll(httpResp.Body) // returns only once the handler exits
	if err != nil {
		t.Fatalf("stream body: %v", err)
	}
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	if len(lines) != len(resp.Results) {
		t.Fatalf("stream delivered %d frames before end-of-stream, perform emitted %d", len(lines), len(resp.Results))
	}
	for i, line := range lines {
		var f protocol.ResultFrame
		if err := json.Unmarshal(line, &f); err != nil {
			t.Fatalf("frame %d is not whole JSON (cut mid-frame?): %v", i, err)
		}
		if f != resp.Results[i] {
			t.Fatalf("frame %d: stream and response disagree", i)
		}
	}

	// The session survives and can be streamed again.
	mustOK(t, m, protocol.Request{Op: protocol.OpPerform, Session: "u", Object: "col", Gesture: &g})
	stream, err := m.SubscribeSession("u", 0)
	if err != nil {
		t.Fatalf("re-subscribe after CloseStreams: %v", err)
	}
	stream.Close()
}

func TestManagerStats(t *testing.T) {
	m := handleManager(t)
	defer m.Close()
	m.SetMaxSessions(2)
	if _, err := m.Create("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("b"); err != nil {
		t.Fatal(err)
	}

	st := m.Stats()
	if st.Live != 2 || st.Max != 2 || st.Evictions != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if len(st.Sessions) != 2 || st.Sessions[0].ID != "a" || st.Sessions[1].ID != "b" {
		t.Fatalf("sessions = %+v, want sorted [a b]", st.Sessions)
	}

	// A third session evicts the LRU one.
	if _, err := m.Create("c"); err != nil {
		t.Fatal(err)
	}
	st = m.Stats()
	if st.Live != 2 || st.Evictions != 1 {
		t.Fatalf("after cap: %+v", st)
	}
}

// TestHandleRequestOverloaded: admission-control rejections cross the
// wire as overloaded responses — HTTP 503 with a Retry-After hint — and
// the thin client surfaces them as protocol.ErrOverloaded.
func TestHandleRequestOverloaded(t *testing.T) {
	m := handleManager(t)
	defer m.Close()
	m.SetAdmissionCap(1)

	mustOK(t, m, protocol.Request{Op: protocol.OpOpen, Session: "u1"})
	resp := m.HandleRequest(protocol.Request{V: protocol.Version, Op: protocol.OpOpen, Session: "u2"})
	if resp.OK || !resp.Overloaded {
		t.Fatalf("open past admission cap: %+v, want overloaded failure", resp)
	}
	if resp.RetryAfter <= 0 {
		t.Fatalf("overloaded response carries no RetryAfter: %+v", resp)
	}

	// Ordinary failures must not be marked overloaded.
	resp = m.HandleRequest(protocol.Request{V: protocol.Version, Op: protocol.OpEvict, Session: "nobody"})
	if resp.OK || resp.Overloaded {
		t.Fatalf("evict of unknown session: %+v, want plain failure", resp)
	}

	srv := httptest.NewServer(protocol.NewHTTPHandler(m))
	defer srv.Close()
	client := &protocol.Client{Base: srv.URL}
	if _, err := client.Do(protocol.Request{Op: protocol.OpOpen, Session: "u3"}); !errors.Is(err, protocol.ErrOverloaded) {
		t.Fatalf("client error = %v, want protocol.ErrOverloaded", err)
	}

	// The raw HTTP surface: 503 plus Retry-After.
	body, err := protocol.EncodeRequest(protocol.Request{Op: protocol.OpOpen, Session: "u4"})
	if err != nil {
		t.Fatal(err)
	}
	httpResp, err := http.Post(srv.URL+"/rpc", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", httpResp.StatusCode)
	}
	if httpResp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After header")
	}

	// Lifting the cap readmits.
	m.SetAdmissionCap(0)
	if _, err := client.Do(protocol.Request{Op: protocol.OpOpen, Session: "u5"}); err != nil {
		t.Fatalf("open after lifting cap: %v", err)
	}
}

// TestStatsFrameGolden pins the OpStats wire JSON byte for byte: the
// admission gauges and the live session ids, nothing else — a remote
// operator's dashboards parse exactly this.
func TestStatsFrameGolden(t *testing.T) {
	m := handleManager(t)
	defer m.Close()
	m.SetMaxSessions(2)
	for _, id := range []string{"b", "a", "c"} { // "b" is LRU-evicted by "c"
		mustOK(t, m, protocol.Request{Op: protocol.OpOpen, Session: id})
	}
	got, err := protocol.EncodeResponse(mustOK(t, m, protocol.Request{Op: protocol.OpStats}))
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"v":2,"ok":true,"stats":{"live":2,"max":2,"evictions":1,"sessions":[{"id":"a"},{"id":"c"}]}}`
	if string(got) != want {
		t.Fatalf("OpStats response:\n got %s\nwant %s", got, want)
	}
}
