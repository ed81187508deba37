package session_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dbtouch"
	"dbtouch/internal/protocol"
	"dbtouch/internal/session"
	"dbtouch/internal/sessionlog"
)

// Wire-level crash equivalence: the crash suite above drives requests
// built in process, which a durable session logs through EncodeRequest.
// A request that arrives over /rpc is logged as the body it arrived as,
// so these tests drive the same scripts through protocol.NewHTTPHandler
// with bodies in every shape a server is sent — v1 and v2, padded,
// create and actions specs that encoding/json reads, gateway-stamped
// ReqIDs spliced after an explicit empty one — kill the server, resume,
// and compare the streams.

// recorder is the Router the handler drives: it executes on a manager and
// keeps every request that executed, and every perform's results
// rendered as feed renders them.
type recorder struct {
	m        *session.Manager
	mu       sync.Mutex
	executed []protocol.Request
	stream   [][]byte
}

func (r *recorder) HandleRequest(req protocol.Request) protocol.Response {
	resp := r.m.HandleRequest(req)
	if resp.OK {
		r.mu.Lock()
		r.executed = append(r.executed, req)
		if req.Op == protocol.OpPerform {
			r.stream = append(r.stream, []byte(fmt.Sprintf("%+v", resp.Results)))
		}
		r.mu.Unlock()
	}
	return resp
}

// wireServer is one durable dbtouch-serve in miniature: a manager on dir
// behind the /rpc handler.
type wireServer struct {
	db    *dbtouch.DB
	store *sessionlog.Store
	rec   *recorder
	h     http.Handler
}

func newWireServer(t *testing.T, dir string) *wireServer {
	t.Helper()
	db, store := newDurableInstance(t, dir)
	rec := &recorder{m: db.Manager()}
	return &wireServer{db: db, store: store, rec: rec, h: protocol.NewHTTPHandler(rec)}
}

// close is a kill -9: every logged request is already on disk, so only
// the file handles go.
func (s *wireServer) close() {
	s.store.Close()
	s.db.Manager().Close()
}

// post sends one /rpc body and returns the response body.
func (s *wireServer) post(t *testing.T, body []byte) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	s.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/rpc", bytes.NewReader(body)))
	return rec.Body.Bytes()
}

// postAll sends bodies in order; every one must execute.
func (s *wireServer) postAll(t *testing.T, bodies [][]byte) [][]byte {
	t.Helper()
	out := make([][]byte, len(bodies))
	for i, b := range bodies {
		before := len(s.rec.executed)
		out[i] = s.post(t, b)
		if len(s.rec.executed) != before+1 {
			t.Fatalf("body %d did not execute: %s\n%s", i, b, out[i])
		}
	}
	return out
}

// stampReqID splices ,"reqId":"id" in front of body's closing brace, as
// the gateway stamps a forwarded request.
func stampReqID(body []byte, id string) []byte {
	end := bytes.LastIndexByte(body, '}')
	out := append([]byte(nil), body[:end]...)
	out = append(out, `,"reqId":"`+id+`"`...)
	return append(out, body[end:]...)
}

// wireBodies renders a script's requests as /rpc bodies, cycling through
// four shapes: a plain v2 body; a padded v1 body with a ReqID; a v2 body
// with a stamped ReqID; a v1 body with "reqId":"" followed by a stamped
// ReqID (the last duplicate wins). withID reports which carry a ReqID.
func wireBodies(t *testing.T, reqs []protocol.Request) (bodies [][]byte, withID []bool) {
	t.Helper()
	for i, req := range reqs {
		b, err := protocol.EncodeRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		v2 := fmt.Sprintf(`{"v":%d,`, protocol.Version)
		if !bytes.HasPrefix(b, []byte(v2)) {
			t.Fatalf("encoded request %s does not start %s", b, v2)
		}
		id := fmt.Sprintf("w-%d", i)
		switch i % 4 {
		case 1:
			b = stampReqID(append([]byte(` { "v" : 1 , `), b[len(v2):]...), id)
			b = append(b, "\n\t "...)
		case 2:
			b = stampReqID(b, id)
		case 3:
			b = stampReqID(append([]byte(`{"v":1,"reqId":"",`), b[len(v2):]...), id)
		}
		bodies = append(bodies, b)
		withID = append(withID, i%4 != 0)
	}
	return bodies, withID
}

// sameRequest compares two requests' exported fields.
func sameRequest(a, b protocol.Request) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		if va.Type().Field(i).IsExported() && !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			return false
		}
	}
	return true
}

// checkLoggedFrames asserts that sid's log holds exactly the bodies the
// server executed, each decoding to the request executed.
func checkLoggedFrames(t *testing.T, dir, sid string, bodies [][]byte, executed []protocol.Request) {
	t.Helper()
	st, err := sessionlog.Open(sessionlog.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rep, err := st.LoadSession(sid)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Frames) != len(bodies) || len(executed) != len(bodies) {
		t.Fatalf("log holds %d frames for %d bodies, %d executed", len(rep.Frames), len(bodies), len(executed))
	}
	for i, fr := range rep.Frames {
		if !bytes.Equal(fr.Payload, bodies[i]) {
			t.Fatalf("frame %d is %q, the body sent was %q", i, fr.Payload, bodies[i])
		}
		req, err := protocol.DecodeRequest(fr.Payload)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !sameRequest(req, executed[i]) {
			t.Fatalf("frame %d decodes to %+v, the server executed %+v", i, req, executed[i])
		}
	}
}

// runWireCrash is runCrashResume through the /rpc handler: the baseline
// and the crashed run post the same bodies; after the kill the last
// executed body is retried — and answered from the dedupe cache the
// resume rebuilt — before the rest follow.
func runWireCrash(t *testing.T, seed int64, torn bool) {
	sid := fmt.Sprintf("wire-%d", seed)
	bodies, withID := wireBodies(t, wireRequests(t, seed, sid))

	base := newWireServer(t, t.TempDir())
	defer base.close()
	base.postAll(t, bodies)

	rng := rand.New(rand.NewSource(seed * 31))
	crashAt := 1 + rng.Intn(len(bodies)-1)
	if !withID[crashAt-1] {
		crashAt++ // the retried request must carry a ReqID
	}

	dir := t.TempDir()
	first := newWireServer(t, dir)
	answers := first.postAll(t, bodies[:crashAt])
	first.close()
	checkLoggedFrames(t, dir, sid, bodies[:crashAt], first.rec.executed)
	if torn {
		tearLog(t, dir, sid, rng.Intn(28))
	}

	second := newWireServer(t, dir)
	defer second.close()
	resp, err := protocol.DecodeResponse(second.post(t, []byte(`{"v":2,"op":"resume","session":"`+sid+`"}`)))
	if err != nil || !resp.OK || resp.Replayed != crashAt {
		t.Fatalf("resume: %+v (%v), want %d replayed", resp, err, crashAt)
	}
	// The retry is answered from the cache, not executed: the recorder
	// sees an OK response, which the stream must not count twice.
	if retry := second.post(t, bodies[crashAt-1]); !bytes.Equal(retry, answers[crashAt-1]) {
		t.Fatalf("retry of body %d answered\n%s\nwant the original\n%s", crashAt-1, retry, answers[crashAt-1])
	}
	second.rec.stream = nil
	if crashAt < len(bodies) {
		second.postAll(t, bodies[crashAt:])
	}
	got := append(first.rec.stream, second.rec.stream...)
	assertStreams(t, base.rec.stream, got, fmt.Sprintf("seed %d crash@%d torn=%v", seed, crashAt, torn))
	if len(base.rec.stream) == 0 {
		t.Fatalf("seed %d produced no performs", seed)
	}
}

// TestWireCrashEquivalence: wire bodies of every shape, killed at random
// points with clean and torn tails, resume to the stream a run that was
// never killed produces, and the log holds the bodies byte for byte.
func TestWireCrashEquivalence(t *testing.T) {
	for seed := int64(61); seed <= 66; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			runWireCrash(t, seed, seed%2 == 0)
		})
	}
}

// TestWireBodiesTakeBothDecoders: the bodies the wire suite sends reach
// both of the handler's decoders — the hand-written walk and
// encoding/json — so the logged bodies cover both.
func TestWireBodiesTakeBothDecoders(t *testing.T) {
	bodies, _ := wireBodies(t, wireRequests(t, 61, "wire-61"))
	fast := 0
	for _, b := range bodies {
		if _, ok := protocol.PeekRequest(b); ok {
			fast++
		}
	}
	if fast == 0 || fast == len(bodies) {
		t.Fatalf("%d of %d bodies in the walk's fast shape, want some and not all", fast, len(bodies))
	}
}

// TestV1FixtureResumes: a session persisted before checkpoints were
// segmented (internal/sessionlog/testdata/v1: crash script 101's first 15
// requests on session "legacy") resumes, and the stream continues as in
// a run that never stopped.
func TestV1FixtureResumes(t *testing.T) {
	const sid, done = "legacy", 15
	dir := t.TempDir()
	for _, name := range []string{"s-legacy.ckpt", "s-legacy.log"} {
		data, err := os.ReadFile(filepath.Join("..", "sessionlog", "testdata", "v1", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	reqs := wireRequests(t, 101, sid)

	baseDB, baseStore := newDurableInstance(t, t.TempDir())
	defer baseStore.Close()
	defer baseDB.Manager().Close()
	var baseline, prefix [][]byte
	feed(t, baseDB.Manager(), reqs, &baseline)
	for _, req := range reqs[:done] {
		if req.Op == protocol.OpPerform {
			prefix = append(prefix, baseline[len(prefix)])
		}
	}

	db, store := newDurableInstance(t, dir)
	defer store.Close()
	defer db.Manager().Close()
	if got := resume(t, db, sid); got != done {
		t.Fatalf("resume replayed %d requests, the fixture holds %d", got, done)
	}
	feed(t, db.Manager(), reqs[done:], &prefix)
	assertStreams(t, baseline, prefix, "v1 fixture")
	if data, err := os.ReadFile(filepath.Join(dir, "s-legacy.ckpt")); err != nil || !strings.HasPrefix(string(data), "dbtslck1") {
		t.Fatalf("resume rewrote the v1 checkpoint: %v", err)
	}
}
