package protocol

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

// paddedBody is a valid request followed by whitespace to exactly size
// bytes: clipped anywhere past the request, it still decodes.
func paddedBody(size int) []byte {
	const req = `{"v":2,"op":"stats"}`
	return []byte(req + strings.Repeat(" ", size-len(req)))
}

// postSized sends body through h on a recorder, declaring its length or,
// with chunked, leaving it for the reader to find.
func postSized(h http.Handler, body []byte, chunked bool) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/rpc", bytes.NewReader(body))
	if chunked {
		req.Body = io.NopCloser(bytes.NewReader(body))
		req.ContentLength = -1
		req.TransferEncoding = []string{"chunked"}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestOversizedBodyRefused: a body past MaxRequestBytes is answered 413
// with a failed envelope naming the limit — never clipped to the limit and
// decoded, which would accept this one, a request padded with whitespace —
// and a body at exactly the limit is served, declared or chunked.
func TestOversizedBodyRefused(t *testing.T) {
	var served atomic.Int64
	h := NewHTTPHandler(routerFunc(func(req Request) Response {
		served.Add(1)
		return OK()
	}))
	for _, chunked := range []bool{false, true} {
		rec := postSized(h, paddedBody(MaxRequestBytes+1), chunked)
		resp, err := DecodeResponse(rec.Body.Bytes())
		if err != nil || rec.Code != http.StatusRequestEntityTooLarge || resp.OK || !strings.Contains(resp.Error, "1048576-byte limit") {
			t.Fatalf("chunked=%v: status %d, %+v (%v); want 413 naming the limit", chunked, rec.Code, resp, err)
		}
		if served.Load() != 0 {
			t.Fatalf("chunked=%v: an oversized body reached the router", chunked)
		}
		rec = postSized(h, paddedBody(MaxRequestBytes), chunked)
		if resp, err := DecodeResponse(rec.Body.Bytes()); err != nil || !resp.OK {
			t.Fatalf("chunked=%v: a body at the limit: status %d, %+v (%v)", chunked, rec.Code, resp, err)
		}
		served.Store(0)
	}
}

// TestOversizedResponseRefused: a server answer past the client's bound is
// refused with an error naming the limit, declared or chunked — never
// clipped and handed to the JSON decoder, which reported a syntax error —
// and an answer at exactly the limit decodes.
func TestOversizedResponseRefused(t *testing.T) {
	defer func(n int64) { maxResponseBytes = n }(maxResponseBytes)
	maxResponseBytes = 1 << 10
	answer := func(size int) []byte {
		const resp = `{"v":2,"ok":true}`
		return []byte(resp + strings.Repeat(" ", size-len(resp)))
	}
	var size atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if size.Load() < 0 {
			w.(http.Flusher).Flush() // chunked: no Content-Length
		}
		w.Write(answer(int(max(size.Load(), -size.Load()))))
	}))
	defer srv.Close()
	c := &Client{Base: srv.URL}
	for _, chunked := range []int64{1, -1} {
		size.Store(chunked * (maxResponseBytes + 1))
		if _, err := c.Do(Request{Op: OpStats}); err == nil || !strings.Contains(err.Error(), "1024-byte limit") {
			t.Fatalf("chunked=%v: an answer one byte past the limit: %v; want an error naming the limit", chunked < 0, err)
		}
		size.Store(chunked * maxResponseBytes)
		if resp, err := c.Do(Request{Op: OpStats}); err != nil || !resp.OK {
			t.Fatalf("chunked=%v: an answer at the limit: %+v, %v", chunked < 0, resp, err)
		}
	}
}
