package faultnet

import (
	"bytes"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// echoServer accepts connections and echoes bytes back until closed.
func echoServer(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				io.Copy(c, c)
			}()
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ln
}

func newProxy(t *testing.T, upstream string) *Proxy {
	t.Helper()
	p, err := New(upstream)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func dial(t *testing.T, addr string) net.Conn {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// roundTrip writes msg and reads len(msg) echoed bytes back.
func roundTrip(t *testing.T, c net.Conn, msg []byte) ([]byte, error) {
	t.Helper()
	if _, err := c.Write(msg); err != nil {
		return nil, err
	}
	got := make([]byte, len(msg))
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, err := io.ReadFull(c, got)
	return got, err
}

func TestTransparentByDefault(t *testing.T) {
	ln := echoServer(t)
	p := newProxy(t, ln.Addr().String())
	c := dial(t, p.Addr())
	msg := bytes.Repeat([]byte("dbtouch"), 4096)
	got, err := roundTrip(t, c, msg)
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("zero-toxic proxy corrupted the stream (%d bytes differ)", len(msg))
	}
	if p.Bytes() < int64(2*len(msg)) {
		t.Fatalf("proxy byte counter %d, want >= %d", p.Bytes(), 2*len(msg))
	}
}

func TestLatencyToxic(t *testing.T) {
	ln := echoServer(t)
	p := newProxy(t, ln.Addr().String())
	c := dial(t, p.Addr())
	msg := []byte("ping")

	// Baseline, then with 60ms one-way latency: the echo crosses the
	// proxy twice, so the round trip gains >= 2x the injected delay.
	start := time.Now()
	if _, err := roundTrip(t, c, msg); err != nil {
		t.Fatal(err)
	}
	base := time.Since(start)

	p.Set(Toxics{Latency: 60 * time.Millisecond})
	start = time.Now()
	if _, err := roundTrip(t, c, msg); err != nil {
		t.Fatal(err)
	}
	slow := time.Since(start)
	if slow < base+100*time.Millisecond {
		t.Fatalf("latency toxic: round trip %v (baseline %v), want >= baseline+100ms", slow, base)
	}
}

func TestBandwidthToxic(t *testing.T) {
	ln := echoServer(t)
	p := newProxy(t, ln.Addr().String())
	c := dial(t, p.Addr())

	// 64 KiB through a 256 KiB/s pipe takes >= 250ms per direction;
	// the two directions pipeline, so assert the single-direction
	// floor (a clean proxy does this round trip in ~1ms).
	p.Set(Toxics{BandwidthBPS: 256 << 10})
	msg := bytes.Repeat([]byte("x"), 64<<10)
	start := time.Now()
	if _, err := roundTrip(t, c, msg); err != nil {
		t.Fatal(err)
	}
	if got := time.Since(start); got < 200*time.Millisecond {
		t.Fatalf("bandwidth toxic: 64KiB round trip took %v, want >= 200ms", got)
	}
}

func TestTearToxicSplitsWritesLosslessly(t *testing.T) {
	ln := echoServer(t)
	p := newProxy(t, ln.Addr().String())
	c := dial(t, p.Addr())
	p.Set(Toxics{Tear: true})
	msg := bytes.Repeat([]byte("0123456789abcdef"), 512)
	got, err := roundTrip(t, c, msg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("tear toxic must reorder nothing: bytes differ")
	}
}

func TestCutAfterResetsMidStream(t *testing.T) {
	ln := echoServer(t)
	p := newProxy(t, ln.Addr().String())
	c := dial(t, p.Addr())
	p.Set(Toxics{CutAfter: 1000, Tear: true})

	// Stream well past the budget: the connection must die with a
	// reset after ~1000 forwarded bytes, never a clean full echo.
	msg := bytes.Repeat([]byte("y"), 64<<10)
	c.SetDeadline(time.Now().Add(5 * time.Second))
	wrote, _ := c.Write(msg) // may fail midway once the cut lands
	got, err := io.ReadAll(c)
	if err == nil && wrote == len(msg) && len(got) == len(msg) {
		t.Fatal("cut toxic: full message survived a 1000-byte budget")
	}
	if len(got) > 1000 {
		t.Fatalf("cut toxic: %d bytes arrived, budget was 1000 total", len(got))
	}
}

func TestBlackholeToxic(t *testing.T) {
	ln := echoServer(t)
	p := newProxy(t, ln.Addr().String())
	c := dial(t, p.Addr())
	p.Set(Toxics{Blackhole: true})
	if _, err := c.Write([]byte("anyone home?")); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	buf := make([]byte, 16)
	if n, err := c.Read(buf); err == nil {
		t.Fatalf("blackhole toxic: %d bytes came back, want timeout", n)
	} else if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
		t.Fatalf("blackhole toxic: read failed with %v, want timeout", err)
	}
	// Healing the blackhole restores the connection for later bytes.
	p.Set(Toxics{})
	if _, err := roundTrip(t, c, []byte("hello")); err != nil {
		t.Fatalf("healed blackhole: %v", err)
	}
}

func TestResetOnDial(t *testing.T) {
	ln := echoServer(t)
	p := newProxy(t, ln.Addr().String())
	p.Set(Toxics{ResetOnDial: true})
	// The reset may surface at dial time (RST during handshake
	// completion) or at first use; either way the connection is dead.
	c, err := net.DialTimeout("tcp", p.Addr(), 2*time.Second)
	if err != nil {
		return // reset landed during dial: toxic observed
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	_, werr := c.Write([]byte("x"))
	_, rerr := c.Read(buf)
	if werr == nil && rerr == nil {
		t.Fatal("reset-on-dial: connection stayed usable")
	}
}

func TestResetAllKillsLiveConnections(t *testing.T) {
	ln := echoServer(t)
	p := newProxy(t, ln.Addr().String())
	a := dial(t, p.Addr())
	b := dial(t, p.Addr())
	// A round trip on each proves the proxy has accepted and registered
	// both: a dial returns before the proxy's accept loop reaches it.
	for _, c := range []net.Conn{a, b} {
		if _, err := roundTrip(t, c, []byte("warm")); err != nil {
			t.Fatal(err)
		}
	}
	p.ResetAll()
	for _, c := range []net.Conn{a, b} {
		c.SetReadDeadline(time.Now().Add(2 * time.Second))
		buf := make([]byte, 1)
		if _, err := c.Read(buf); err == nil {
			t.Fatal("ResetAll: connection survived")
		} else if strings.Contains(err.Error(), "timeout") {
			t.Fatalf("ResetAll: read timed out instead of failing fast: %v", err)
		}
	}
	// New connections work again — the proxy itself survived.
	c := dial(t, p.Addr())
	if _, err := roundTrip(t, c, []byte("back")); err != nil {
		t.Fatalf("post-ResetAll dial: %v", err)
	}
}
