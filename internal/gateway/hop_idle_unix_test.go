//go:build unix

package gateway

import (
	"net"
	"testing"
	"time"
)

// TestClosedWhileIdle: a pooled connection reads as closed once its peer
// closed it or wrote to it unasked, and as open otherwise, also when the
// last exchange's deadline has passed.
func TestClosedWhileIdle(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	pair := func() (*hopConn, net.Conn) {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		peer, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close(); peer.Close() })
		return newHopConn(conn), peer
	}

	open, _ := pair()
	open.SetDeadline(time.Now().Add(-time.Second))
	for i := 0; i < 2; i++ {
		if open.closedWhileIdle() {
			t.Fatalf("check %d: an open connection past its last deadline reads as closed", i)
		}
	}
	for _, c := range []struct {
		name string
		act  func(net.Conn)
	}{
		{"closed", func(p net.Conn) { p.Close() }},
		{"written", func(p net.Conn) { p.Write([]byte("x")) }},
	} {
		hc, peer := pair()
		c.act(peer)
		deadline := time.Now().Add(5 * time.Second)
		for !hc.closedWhileIdle() {
			if time.Now().After(deadline) {
				t.Fatalf("%s by its peer: the connection still reads as open", c.name)
			}
			time.Sleep(time.Millisecond)
		}
	}
}
