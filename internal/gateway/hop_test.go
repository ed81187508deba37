package gateway

import (
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dbtouch/internal/protocol"
)

// closedPeer reports whether the far end of a pipe was closed: a read
// there sees EOF instead of waiting.
func closedPeer(p net.Conn) bool {
	p.SetReadDeadline(time.Now().Add(time.Second))
	_, err := p.Read(make([]byte, 1))
	return err == io.EOF
}

// TestHopPool: the pool hands back the most recently returned connection
// first, keeps at most maxIdleConnsPerBackend, and once closed closes
// what it holds and whatever is returned later.
func TestHopPool(t *testing.T) {
	h := &hop{}
	var peers []net.Conn
	var conns []*hopConn
	for i := 0; i <= maxIdleConnsPerBackend; i++ {
		c, p := net.Pipe()
		peers = append(peers, p)
		conns = append(conns, &hopConn{Conn: c})
		h.put(conns[i])
	}
	if n := len(h.idle); n != maxIdleConnsPerBackend {
		t.Fatalf("the pool holds %d connections, want %d", n, maxIdleConnsPerBackend)
	}
	if !closedPeer(peers[maxIdleConnsPerBackend]) {
		t.Fatal("a connection returned to a full pool was kept open")
	}
	last := maxIdleConnsPerBackend - 1
	if c := h.get(); c != conns[last] {
		t.Fatal("get did not return the most recently returned connection")
	}
	h.put(conns[last])
	h.closeIdle(true)
	for i, p := range peers[:maxIdleConnsPerBackend] {
		if !closedPeer(p) {
			t.Fatalf("idle connection %d is open after the pool closed", i)
		}
	}
	c, p := net.Pipe()
	h.put(&hopConn{Conn: c})
	if len(h.idle) != 0 || !closedPeer(p) {
		t.Fatal("a connection returned after the pool closed was kept")
	}
}

// TestHopFailureClosesIdle: a request that times out is the backend's
// failure, not a stale connection's, so it is not sent again, and the
// backend's other idle connections are closed with it.
func TestHopFailureClosesIdle(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		time.Sleep(300 * time.Millisecond)
	}))
	t.Cleanup(srv.Close)
	h, err := newHop(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	var idle []*hopConn
	for i := 0; i < 2; i++ {
		conn, err := net.Dial("tcp", h.addr)
		if err != nil {
			t.Fatal(err)
		}
		idle = append(idle, newHopConn(conn))
		h.put(idle[i])
	}
	_, err = h.post([]byte(`{}`), time.Now().Add(50*time.Millisecond), true)
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("post past its deadline: %v", err)
	}
	if len(h.idle) != 0 {
		t.Fatalf("%d idle connections kept after a failure", len(h.idle))
	}
	if _, err := idle[0].Read(make([]byte, 1)); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("the other idle connection reads %v, want it closed", err)
	}
	srv.Close() // waits for the handler
	if n := hits.Load(); n != 1 {
		t.Fatalf("the backend saw %d requests, want 1: a timeout is not resent", n)
	}
}

// TestResendable: a request may reach a backend twice when a ReqID makes
// it exactly-once or its op changes no session; never an append.
func TestResendable(t *testing.T) {
	for _, c := range []struct {
		rt   routing
		want bool
	}{
		{routing{Op: protocol.OpPerform, ReqID: "r1"}, true},
		{routing{Op: protocol.OpPerform}, false},
		{routing{Op: protocol.OpOpen}, false},
		{routing{Op: protocol.OpStats}, true},
		{routing{Op: protocol.OpResume}, true},
		{routing{Op: protocol.OpAppend}, false},
		{routing{Op: protocol.OpAppend, ReqID: "r1"}, false},
	} {
		if got := c.rt.resendable(); got != c.want {
			t.Errorf("%+v: resendable %v, want %v", c.rt, got, c.want)
		}
	}
}

// TestNewRefusesNonHTTPBackend: the hop speaks plain HTTP/1.1, so New
// refuses any other scheme and names the backend.
func TestNewRefusesNonHTTPBackend(t *testing.T) {
	for _, base := range []string{"https://127.0.0.1:8443", "unix:///tmp/dbtouch.sock"} {
		g, err := New(Options{Backends: []string{"127.0.0.1:8081", base}, HealthInterval: time.Hour})
		if err == nil {
			g.Close()
			t.Fatalf("New accepted backend %s", base)
		}
		if !strings.Contains(err.Error(), base) {
			t.Fatalf("the error %q does not name %s", err, base)
		}
	}
}

// TestHopClosingReplyNotPooled: a connection comes back to the pool only
// after a reply that keeps it open, not one that asks to close it.
func TestHopClosingReplyNotPooled(t *testing.T) {
	for _, closing := range []bool{false, true} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			if closing {
				w.Header().Set("Connection", "close")
			}
			io.WriteString(w, `{"v":2,"ok":true}`)
		}))
		h, err := newHop(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		res, err := h.post([]byte(`{}`), time.Now().Add(5*time.Second), false)
		if err != nil || res.status != http.StatusOK {
			t.Fatalf("closing %v: post answered %d, %v", closing, res.status, err)
		}
		if n, want := len(h.idle), map[bool]int{false: 1, true: 0}[closing]; n != want {
			t.Fatalf("closing %v: the pool holds %d connections, want %d", closing, n, want)
		}
		h.closeIdle(true)
		srv.Close()
	}
}
