package gateway

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dbtouch/internal/protocol"
)

// appendBody builds an append of n rows, padded with a trailing string
// cell to exactly size bytes when size > 0.
func appendBody(n, size int) []byte {
	var b bytes.Buffer
	b.WriteString(`{"v":2,"op":"append","table":"live","rows":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`[` + strconv.Itoa(i) + `,1.5,true,"x"]`)
	}
	const tail = `]}`
	if pad := size - b.Len() - len(`,["`) - len(`"]`) - len(tail); pad > 0 {
		b.WriteString(`,["` + strings.Repeat("p", pad) + `"]`)
	}
	b.WriteString(tail)
	return b.Bytes()
}

// FuzzStampedRequest holds the ReqID splice — an edit of client bytes at
// the trust boundary — to the path it replaced: decode the body, set the
// ReqID, re-marshal. For any body the protocol decoder accepts, the
// backend must decode the spliced bytes to exactly the request the
// re-marshal carried, and the peek must have routed on the same five
// fields; for any body it rejects, the client must read the same
// rejection — from the peek at the edge, or, when the fault sits in a
// field the gateway does not read, from the backend decoding what the
// gateway forwards. Never a panic, whatever the bytes.
func FuzzStampedRequest(f *testing.F) {
	for _, seed := range []string{
		`{"v":1,"op":"open","session":"s"}`,
		`{"v":2,"op":"perform","session":"s","object":"o","gesture":{"kind":"slide","to":1,"dur":2000000000}}`,
		`{"v":2,"op":"perform","session":"s","reqId":""}`,
		`{"v":2,"op":"perform","session":"s","reqId":null}`,
		`{"v":2,"op":"perform","session":"s","reqId":"client-7"}`,
		`{"v":2,"op":"perform","session":"s","REQID":"x"}`,
		`{"v":2,"op":"idle","session":"a","session":"b","reqId":"x","reqId":"","idle":5}`,
		"{\"v\":2,\"op\":\"open\",\"session\":\"s\"} \r\n\t\n",
		`{"v":2,"op":"create","session":"}{","object":"o}","create":{"table":"t}","column":"\"}","x":2,"y":2,"w":2,"h":10}}`,
		`{"v":2,"op":"perform","session":"s","gesture":{"kind":"tap","frac":0.5},"object":"}"}`,
		`{"v":2,"op":"configure","session":"s","object":"o","actions":{"mode":"summary","k":3,"where":[{"column":"v","op":">","value":"}"}]}}`,
		`{"v":2,"op":"configure","session":"s","actions":{"where":[]},"rows":[]}`,
		`{"v":2,"op":"perform","session":"s","gesture":"not an object"}`,
		`{"v":2,"op":"idle","session":"s","idle":"soon"}`,
		`{"gesture":7,"v":"two"}`,
		`{"v":3,"op":"open","session":"s"}`,
		`{"op":"open","session":"s"}`,
		`{"v":2,"op":"open","session":"s"`,
		`{"v":2,"op":"open","session":"s"}}`,
		`null`, `[]`, `7`, `"{}"`, `{}`, ``,
	} {
		f.Add([]byte(seed))
	}
	f.Add(appendBody(1000, 0))
	f.Add(appendBody(10, maxProxyRequestBytes-64))

	const id = "gw-fuzz-7"
	f.Fuzz(func(t *testing.T, body []byte) {
		want, wantErr := protocol.DecodeRequest(body)
		rt, peekErr := peekRequest(body)
		if wantErr != nil {
			if peekErr != nil {
				if peekErr.Error() != wantErr.Error() {
					t.Fatalf("edge rejection %q, a backend says %q", peekErr, wantErr)
				}
				return
			}
			// The fault is outside the routing fields: the gateway forwards
			// and the backend must word the rejection as it would have for
			// the client's own bytes.
			fwd := body
			if rt.ReqID == "" {
				fwd = stamp(body, id)
			}
			if _, err := protocol.DecodeRequest(fwd); err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("backend rejection of the forwarded body %q, of the client's body %q", err, wantErr)
			}
			return
		}
		if peekErr != nil {
			t.Fatalf("peek rejected a body the decoder accepts: %v", peekErr)
		}
		if got := (routing{V: want.V, Op: want.Op, ReqID: want.ReqID, Session: want.Session, Table: want.Table}); rt != got {
			t.Fatalf("peek read %+v, the decoder %+v", rt, got)
		}
		if want.ReqID != "" {
			return // forwarded untouched
		}
		got, err := protocol.DecodeRequest(stamp(body, id))
		if err != nil {
			t.Fatalf("backend rejects the stamped body: %v", err)
		}
		// Compared in marshaled form — the bytes the deleted path put on
		// the wire — which is blind only to what that path erased too: an
		// empty omitempty list re-marshals to an absent one.
		want.ReqID = id
		oracle, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if spliced, _ := json.Marshal(got); !bytes.Equal(spliced, oracle) {
			t.Fatalf("stamped body decodes to\n %s\nthe re-marshal carried\n %s", spliced, oracle)
		}
	})
}

// TestStampOverflowRejectedAtEdge: a body the stamp would push past the
// backend's /rpc bound is refused by the gateway with a plain failure
// (retrying cannot help), not truncated mid-JSON by the backend's
// reader; the same body carrying its own ReqID needs no stamp and goes
// through.
func TestStampOverflowRejectedAtEdge(t *testing.T) {
	var hits atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		io.Copy(io.Discard, r.Body)
		io.WriteString(w, `{"v":2,"ok":true}`)
	}))
	defer backend.Close()
	g, err := New(Options{Backends: []string{backend.URL}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	post := func(body []byte) protocol.Response {
		t.Helper()
		rec := httptest.NewRecorder()
		g.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/rpc", bytes.NewReader(body)))
		resp, err := protocol.DecodeResponse(rec.Body.Bytes())
		if err != nil {
			t.Fatalf("status %d, undecodable body %q: %v", rec.Code, rec.Body.Bytes(), err)
		}
		return resp
	}
	padded := func(head string) []byte {
		const tail = `"}`
		return []byte(head + strings.Repeat("p", maxProxyRequestBytes-8-len(head)-len(tail)) + tail)
	}
	// Open the session first: the backend then holds it, so a perform
	// reaches it alone, with no resume ahead of it.
	if resp := post([]byte(`{"v":1,"op":"open","session":"s"}`)); !resp.OK {
		t.Fatalf("open: %+v", resp)
	}
	hits.Store(0)

	resp := post(padded(`{"v":1,"op":"perform","session":"s","object":"`))
	if resp.OK || resp.Overloaded || resp.V != 1 || !strings.Contains(resp.Error, "too large") {
		t.Fatalf("want a plain v1 too-large failure, got %+v", resp)
	}
	if n := hits.Load(); n != 0 {
		t.Fatalf("the oversized request reached the backend %d times", n)
	}
	if resp := post(padded(`{"v":1,"op":"perform","session":"s","reqId":"mine","object":"`)); !resp.OK {
		t.Fatalf("a body that needs no stamp was refused: %+v", resp)
	}
	if n := hits.Load(); n != 1 {
		t.Fatalf("backend saw %d requests, want 1", n)
	}
}

// TestOversizedBodyRefusedAtEdge: a body past the /rpc bound is answered
// 413 naming the limit by the gateway itself, declared or chunked —
// never clipped to the bound and forwarded, which would have passed this
// one, a stats request padded with whitespace.
func TestOversizedBodyRefusedAtEdge(t *testing.T) {
	var hits atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		io.Copy(io.Discard, r.Body)
		io.WriteString(w, `{"v":2,"ok":true}`)
	}))
	defer backend.Close()
	g, err := New(Options{Backends: []string{backend.URL}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	const req = `{"v":2,"op":"stats"}`
	body := []byte(req + strings.Repeat(" ", maxProxyRequestBytes+1-len(req)))
	for _, chunked := range []bool{false, true} {
		hreq := httptest.NewRequest(http.MethodPost, "/rpc", bytes.NewReader(body))
		if chunked {
			hreq.Body = io.NopCloser(bytes.NewReader(body))
			hreq.ContentLength = -1
			hreq.TransferEncoding = []string{"chunked"}
		}
		rec := httptest.NewRecorder()
		g.Handler().ServeHTTP(rec, hreq)
		resp, err := protocol.DecodeResponse(rec.Body.Bytes())
		if err != nil || rec.Code != http.StatusRequestEntityTooLarge || resp.OK || !strings.Contains(resp.Error, "1048576-byte limit") {
			t.Fatalf("chunked=%v: status %d, %+v (%v); want 413 naming the limit", chunked, rec.Code, resp, err)
		}
	}
	if n := hits.Load(); n != 0 {
		t.Fatalf("oversized requests reached the backend %d times", n)
	}
}

// TestOversizedResponseRefused: a backend answer past the proxy's bound is
// refused with a plain failure naming the limit — never relayed clipped
// under status 200, where its intact {"v":2,"ok":true prefix passed for
// success — and is not retried elsewhere; an answer at the limit is
// relayed whole.
func TestOversizedResponseRefused(t *testing.T) {
	defer func(n int64) { maxProxyResponseBytes = n }(maxProxyResponseBytes)
	maxProxyResponseBytes = 1 << 10
	var hits, size atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		io.Copy(io.Discard, r.Body)
		const ok = `{"v":2,"ok":true}`
		io.WriteString(w, ok+strings.Repeat(" ", int(size.Load())-len(ok)))
	}))
	defer backend.Close()
	g, err := New(Options{Backends: []string{backend.URL}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	post := func() (int, protocol.Response) {
		t.Helper()
		rec := httptest.NewRecorder()
		g.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/rpc", strings.NewReader(`{"v":1,"op":"open","session":"s"}`)))
		resp, err := protocol.DecodeResponse(rec.Body.Bytes())
		if err != nil {
			t.Fatalf("status %d, undecodable body %.40q: %v", rec.Code, rec.Body.Bytes(), err)
		}
		return rec.Code, resp
	}
	size.Store(maxProxyResponseBytes + 1)
	if code, resp := post(); resp.OK || resp.Overloaded || resp.V != 1 || !strings.Contains(resp.Error, "1024-byte limit") {
		t.Fatalf("status %d, %+v; want a plain v1 failure naming the limit", code, resp)
	}
	if n := hits.Load(); n != 1 {
		t.Fatalf("backend saw %d requests, want 1: an oversized answer is not retried", n)
	}
	size.Store(maxProxyResponseBytes)
	if code, resp := post(); code != http.StatusOK || !resp.OK {
		t.Fatalf("an answer at the limit: status %d, %+v", code, resp)
	}
}
