// Package faultnet is an in-process TCP fault injector — a
// toxiproxy-style proxy the chaos suites put between the gateway and
// its backends to make the network misbehave on demand. A Proxy
// listens on a loopback port, forwards every accepted connection to
// one upstream address, and applies the currently-set Toxics to the
// bytes flowing through:
//
//	Latency/Jitter  added one-way delay per forwarded chunk
//	BandwidthBPS    throughput cap per direction
//	Tear            writes split into tiny chunks, so frame and HTTP
//	                message boundaries land mid-write on the peer
//	CutAfter       	hard connection reset (RST, not FIN) once a
//	                connection has carried this many bytes — combined
//	                with Tear this is the torn-mid-frame write
//	Blackhole       bytes are read and dropped; peers block forever
//	ResetOnDial     accepted connections are reset immediately
//
// Toxics are runtime-mutable (Set) and apply to live connections at
// their next chunk; ResetAll resets every live connection at once —
// the "network partition heals/breaks" event in a fault schedule. The
// zero Toxics value forwards cleanly, so a Proxy with no toxics set is
// byte-transparent (the self-test suite pins that, plus each toxic's
// observable effect, against a plain echo server).
package faultnet

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Toxics is one fault configuration. Fields compose; the zero value is
// a transparent proxy.
type Toxics struct {
	// Latency delays each forwarded chunk (both directions); Jitter
	// adds a uniform random extra in [0, Jitter).
	Latency time.Duration
	Jitter  time.Duration
	// BandwidthBPS caps each direction's throughput in bytes/second
	// (0 = unlimited).
	BandwidthBPS int
	// Tear forwards writes in chunks of at most tearChunk bytes, so the
	// peer observes message boundaries torn mid-frame.
	Tear bool
	// CutAfter hard-resets (RST) a connection once its total forwarded
	// bytes (both directions) reach this count (0 = never). Each
	// connection counts independently from the moment the toxic is set.
	CutAfter int64
	// Blackhole reads and discards everything: connections stay open
	// but no byte ever arrives, the slow-failure mode timeouts exist
	// for.
	Blackhole bool
	// ResetOnDial resets every newly accepted connection immediately —
	// the backend looks dead at the TCP level while its process lives.
	ResetOnDial bool
}

// tearChunk is the max forwarded chunk size under the Tear toxic:
// small enough to split any wire frame (binary frame headers are 4+
// bytes, JSON lines tens), large enough to keep tests fast.
const tearChunk = 7

// Proxy is one listener forwarding to one upstream, with mutable
// toxics. Safe for concurrent use.
type Proxy struct {
	upstream string
	ln       net.Listener

	mu     sync.Mutex
	toxics Toxics
	conns  map[net.Conn]struct{}
	closed bool

	// bytes counts total forwarded bytes (both directions, all
	// connections) — test observability.
	bytes atomic.Int64

	wg sync.WaitGroup
}

// New starts a proxy on a fresh loopback port forwarding to upstream
// ("host:port"). Close releases it.
func New(upstream string) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("faultnet: listen: %w", err)
	}
	p := &Proxy{upstream: upstream, ln: ln, conns: make(map[net.Conn]struct{})}
	p.wg.Add(1)
	go p.accept()
	return p, nil
}

// Addr returns the proxy's listen address — what clients dial instead
// of the upstream.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Set replaces the active toxics; live connections observe the change
// at their next forwarded chunk.
func (p *Proxy) Set(t Toxics) {
	p.mu.Lock()
	p.toxics = t
	p.mu.Unlock()
}

// Toxics returns the active configuration.
func (p *Proxy) Toxics() Toxics {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.toxics
}

// Bytes reports total bytes the proxy has handed to a destination.
func (p *Proxy) Bytes() int64 { return p.bytes.Load() }

// ResetAll hard-resets every live connection: in-flight requests and
// streams die with a connection reset, as if a switch port flapped.
func (p *Proxy) ResetAll() {
	p.mu.Lock()
	conns := make([]net.Conn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	for _, c := range conns {
		rst(c)
	}
}

// Close stops the listener and resets every live connection.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	err := p.ln.Close()
	p.ResetAll()
	p.wg.Wait()
	return err
}

// rst force-closes a connection with an RST (linger 0) rather than a
// clean FIN — the peer sees "connection reset by peer", not EOF.
func rst(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	c.Close()
}

func (p *Proxy) accept() {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		if p.Toxics().ResetOnDial {
			rst(client)
			continue
		}
		upstream, err := net.DialTimeout("tcp", p.upstream, 5*time.Second)
		if err != nil {
			rst(client)
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			rst(client)
			rst(upstream)
			return
		}
		p.conns[client] = struct{}{}
		p.conns[upstream] = struct{}{}
		p.mu.Unlock()

		// budget is the connection's shared CutAfter countdown (both
		// directions); counting starts when the toxic is armed.
		budget := new(atomic.Int64)
		budget.Store(-1)
		p.wg.Add(2)
		go p.pump(client, upstream, budget)
		go p.pump(upstream, client, budget)
	}
}

// drop deregisters and resets both ends of a connection pair.
func (p *Proxy) drop(a, b net.Conn) {
	p.mu.Lock()
	delete(p.conns, a)
	delete(p.conns, b)
	p.mu.Unlock()
	rst(a)
	rst(b)
}

// pump forwards src→dst applying the active toxics per chunk. Each
// direction runs its own pump; the shared budget implements CutAfter
// across both.
func (p *Proxy) pump(src, dst net.Conn, budget *atomic.Int64) {
	defer p.wg.Done()
	defer p.drop(src, dst)
	buf := make([]byte, 32<<10)
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if !p.forward(dst, buf[:n], budget, rng) {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// forward applies toxics to one chunk. Returns false when the
// connection died (cut, blackhole teardown, or write failure).
func (p *Proxy) forward(dst net.Conn, chunk []byte, budget *atomic.Int64, rng *rand.Rand) bool {
	t := p.Toxics()
	if t.Blackhole {
		// Swallow silently; the connection stays open and idle.
		return true
	}
	// Arm (or disarm) the shared cut budget when the toxic changes.
	if t.CutAfter > 0 {
		budget.CompareAndSwap(-1, t.CutAfter)
	} else {
		budget.Store(-1)
	}
	if t.Latency > 0 || t.Jitter > 0 {
		d := t.Latency
		if t.Jitter > 0 {
			d += time.Duration(rng.Int63n(int64(t.Jitter)))
		}
		time.Sleep(d)
	}
	if t.BandwidthBPS > 0 {
		time.Sleep(time.Duration(float64(len(chunk)) / float64(t.BandwidthBPS) * float64(time.Second)))
	}
	for len(chunk) > 0 {
		piece := chunk
		if t.Tear && len(piece) > tearChunk {
			piece = piece[:tearChunk]
		}
		// CutAfter: spend budget; on exhaustion forward the partial
		// piece that fits, then reset — tearing the frame mid-write.
		if b := budget.Load(); b >= 0 {
			if b == 0 {
				return false // deferred drop resets both ends
			}
			if int64(len(piece)) > b {
				piece = piece[:b]
			}
			budget.Add(-int64(len(piece)))
		}
		// Counted before the write: once dst's reader holds the bytes,
		// Bytes already includes them.
		p.bytes.Add(int64(len(piece)))
		if _, err := dst.Write(piece); err != nil {
			return false
		}
		chunk = chunk[len(piece):]
	}
	return true
}
