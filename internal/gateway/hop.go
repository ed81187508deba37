package gateway

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"sync"
	"time"
)

// hop is one backend's /rpc client: a LIFO pool of keep-alive
// connections the gateway writes requests to and reads replies from on
// the forwarding goroutine itself. There is no connection goroutine and
// no context per request: the connection's deadline bounds the attempt.
// A connection is reused only after a complete reply that did not ask to
// close it, so a late answer is never read as the next request's.
type hop struct {
	addr string // host:port to dial
	url  string // the backend's /rpc URL, for errors
	head []byte // request line and headers up to the Content-Length value

	mu     sync.Mutex
	idle   []*hopConn // most recently returned last
	closed bool
}

// hopConn is one keep-alive connection to a backend.
type hopConn struct {
	net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

// newHopConn wraps a dialed connection with its buffers.
func newHopConn(conn net.Conn) *hopConn {
	return &hopConn{Conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
}

// newHop builds the /rpc client for a backend root. Only http:// roots
// are served: the hop writes plain HTTP/1.1 and has no TLS.
func newHop(base string) (*hop, error) {
	u, err := url.Parse(base)
	if err != nil {
		return nil, fmt.Errorf("gateway: backend %s: %v", base, err)
	}
	if u.Scheme != "http" || u.Host == "" {
		return nil, fmt.Errorf("gateway: backend %s: only http:// backends are supported", base)
	}
	addr := u.Host
	if u.Port() == "" {
		addr = net.JoinHostPort(u.Hostname(), "80")
	}
	path := u.EscapedPath() + "/rpc"
	return &hop{
		addr: addr,
		url:  base + "/rpc",
		head: []byte("POST " + path + " HTTP/1.1\r\nHost: " + u.Host +
			"\r\nContent-Type: application/json\r\nContent-Length: "),
	}, nil
}

// get pops the most recently returned idle connection, or nil.
func (h *hop) get() *hopConn {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := len(h.idle)
	if n == 0 {
		return nil
	}
	c := h.idle[n-1]
	h.idle[n-1] = nil
	h.idle = h.idle[:n-1]
	return c
}

// put returns a connection to the pool, or closes it when the pool is
// closed or full.
func (h *hop) put(c *hopConn) {
	h.mu.Lock()
	if !h.closed && len(h.idle) < maxIdleConnsPerBackend {
		h.idle = append(h.idle, c)
		c = nil
	}
	h.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// closeIdle closes every idle connection; with done set, the pool also
// closes whatever is handed back later.
func (h *hop) closeIdle(done bool) {
	h.mu.Lock()
	idle := h.idle
	h.idle = nil
	h.closed = h.closed || done
	h.mu.Unlock()
	for _, c := range idle {
		c.Close()
	}
}

// post sends one /rpc body and reads its reply, the attempt bounded by
// deadline. A transport failure closes the backend's idle connections
// too: a killed process leaves every pooled socket dead. The one
// exception is a pooled connection that fails before the first reply
// byte, which is most likely one the backend closed while it sat idle:
// when resend allows the request to arrive twice, it goes once more on a
// fresh connection and the failure is not the backend's. A request that
// may not arrive twice checks its pooled connection first instead, and
// drops one the backend closed, so an append after an idle gap is not
// lost to the backend's idle timeout.
func (h *hop) post(raw []byte, deadline time.Time, resend bool) (rpcResult, error) {
	c := h.get()
	for !resend && c != nil && c.closedWhileIdle() {
		c.Close()
		c = h.get()
	}
	reused := c != nil
	for {
		if c == nil {
			conn, err := (&net.Dialer{Deadline: deadline}).Dial("tcp", h.addr)
			if err != nil {
				h.closeIdle(false)
				return rpcResult{}, fmt.Errorf("post %s: %w", h.url, err)
			}
			c = newHopConn(conn)
		}
		res, early, err := h.exchange(c, raw, deadline)
		if err == nil {
			return res, nil
		}
		if reused && early && resend {
			c, reused = nil, false
			continue
		}
		if errors.Is(err, errResponseTooLarge) {
			return rpcResult{}, err // the backend answered
		}
		h.closeIdle(false)
		return rpcResult{}, fmt.Errorf("post %s: %w", h.url, err)
	}
}

// exchange writes one request on c in a single flush and reads its reply
// whole, then hands c back to the pool or closes it. early reports a
// failure before the first reply byte that was not the deadline's.
func (h *hop) exchange(c *hopConn, raw []byte, deadline time.Time) (res rpcResult, early bool, err error) {
	keep := false
	defer func() {
		if keep {
			h.put(c)
		} else {
			c.Close()
		}
	}()
	if err = c.SetDeadline(deadline); err != nil {
		return res, false, err
	}
	c.bw.Write(h.head)
	c.bw.Write(strconv.AppendInt(c.bw.AvailableBuffer(), int64(len(raw)), 10))
	c.bw.WriteString("\r\n\r\n")
	c.bw.Write(raw)
	if err = c.bw.Flush(); err == nil {
		_, err = c.br.Peek(1)
	}
	if err != nil {
		return res, !errors.Is(err, os.ErrDeadlineExceeded), err
	}
	// The standard parser reads the status line and headers, and it
	// frames the body: Content-Length, chunked (every reply the backend
	// writes past its 2 KB buffer) or until close.
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return res, false, err
	}
	res.status = resp.StatusCode
	if s := resp.Header.Get("Retry-After"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			res.retryAfter = time.Duration(n) * time.Second
		}
	}
	switch n := resp.ContentLength; {
	case n > maxProxyResponseBytes:
		return rpcResult{}, false, tooLarge()
	case n >= 0:
		res.body = make([]byte, n)
		_, err = io.ReadFull(resp.Body, res.body)
	default:
		res.body, err = io.ReadAll(io.LimitReader(resp.Body, maxProxyResponseBytes+1))
		if err == nil && int64(len(res.body)) > maxProxyResponseBytes {
			return rpcResult{}, false, tooLarge()
		}
	}
	if err != nil {
		return rpcResult{}, false, err
	}
	keep = !resp.Close && c.br.Buffered() == 0
	return res, false, nil
}

// tooLarge refuses a reply past maxProxyResponseBytes.
func tooLarge() error {
	return fmt.Errorf("%w: it exceeds the %d-byte limit", errResponseTooLarge, maxProxyResponseBytes)
}
