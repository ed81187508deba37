// Package gateway is the fleet front door: a reverse proxy that routes
// the dbtouch wire protocol across N dbtouch-serve backends and makes
// backend failure invisible to clients. Sessions are placed by
// rendezvous hashing over the currently-ready backends and pinned in an
// explicit table; every backend is health-checked actively (GET
// /healthz) behind a per-backend circuit breaker with flap damping, so
// a bouncing backend is readmitted only after consecutive successful
// probes — and only probe traffic touches a half-open backend, never a
// thundering herd of client retries.
//
// The proxy path is resilient by construction: per-attempt deadlines,
// capped exponential backoff with full jitter (protocol.Backoff's Delay
// under the gateway's own retry loop), Retry-After honored on 503. Mutating
// requests are stamped with a per-session ReqID before forwarding, so a
// retried request whose response was lost in flight is answered from
// the session's dedupe cache instead of executing twice — which is what
// makes retrying performs safe at all.
//
// The forward path parses nothing it does not route on. A request is
// peeked for its five routing fields and then travels as the client
// sent it: the backend receives the client's bytes verbatim plus at
// most one spliced key (the ReqID stamp). A response is relayed as the
// backend sent it: its bytes are never re-encoded, an OK envelope is
// recognized by its first bytes and never parsed, and a non-OK body is
// read only to spot "gone" (or a draining backend's refusal).
//
// Placement is one rule, applied by place before anything is sent for a
// session: its requests go to the pinned backend while that backend is
// ready and known to hold the session — it answered the session OK or
// accepted its resume. Otherwise the session is routed afresh and, before
// any op but open and resume lands there, resumed from the shared
// -session-dir (every executed request is teed into the session's durable
// log by whichever backend runs it). One rule covers every way a backend
// may lack the session: the pin died or is draining (SIGTERM flips its
// /healthz to "draining", and the gateway migrates its sessions off
// proactively), the gateway is fresh, the backend restarted in place and
// answers "gone", or the session's stream there dropped. The client
// observes a slower request, not a lost session.
package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dbtouch/internal/protocol"
)

// ErrNoBackends reports that no backend is currently ready (all tripped,
// draining, or none configured).
var ErrNoBackends = errors.New("gateway: no ready backend")

// maxProxyRequestBytes bounds one forwarded request body: the server's
// own /rpc bound, so a body the gateway accepts is one a backend reads
// whole.
const maxProxyRequestBytes = protocol.MaxRequestBytes

// maxProxyResponseBytes bounds one forwarded response body (matches the
// client's own decode bound). A variable so that tests can reach it.
var maxProxyResponseBytes int64 = 64 << 20

// errResponseTooLarge refuses a backend answer past maxProxyResponseBytes:
// relayed clipped, it would reach the client as broken JSON under status
// 200, and its intact {"v":2,"ok":true prefix would mark the pin held.
var errResponseTooLarge = errors.New("backend response too large")

// maxIdleConnsPerBackend sizes the keep-alive pool the gateway holds to
// each backend, well above any realistic per-backend concurrency:
// http.DefaultTransport keeps two, so every forward past the second in
// flight would close its connection on return and re-dial the next time.
const maxIdleConnsPerBackend = 256

// Gateway option defaults.
const (
	DefaultRequestTimeout   = 30 * time.Second
	DefaultHealthInterval   = time.Second
	DefaultFailThreshold    = 3
	DefaultSuccessThreshold = 2
	DefaultOpenCooldown     = 5 * time.Second
)

// Options configures a Gateway. Zero durations/counts select the
// defaults above.
type Options struct {
	// Backends are the dbtouch-serve roots to front, e.g.
	// "http://127.0.0.1:8081". A bare host:port gets http:// prepended.
	// All backends must share one -session-dir for failover to work.
	Backends []string
	// Retry is the proxy path's backoff policy (capped exponential, full
	// jitter, Retry-After floored): retry reads its MaxAttempts and Delay.
	Retry protocol.Backoff
	// RequestTimeout bounds one forwarded /rpc attempt (default 30s).
	// Streams are never bounded.
	RequestTimeout time.Duration
	// HealthInterval is the active /healthz probe period (default 1s).
	HealthInterval time.Duration
	// ProbeTimeout bounds one health probe (default: HealthInterval).
	ProbeTimeout time.Duration
	// FailThreshold is how many consecutive failures trip a backend's
	// breaker open (default 3) — the flap damping on the way down.
	FailThreshold int
	// SuccessThreshold is how many consecutive half-open probe successes
	// close the breaker again (default 2) — the flap damping on the way
	// back up.
	SuccessThreshold int
	// OpenCooldown is how long an open breaker waits before the prober
	// tries the backend again, half-open (default 5s).
	OpenCooldown time.Duration
	// Logf, when set, receives one line per state transition (trip,
	// recovery, drain, failover). Nil is silent.
	Logf func(format string, args ...any)
}

// sessEntry is one session's pin-table row: the backend it is pinned
// to, whether that backend is known to hold the session, and the ReqID
// sequence. The entry mutex serializes everything the gateway does for
// that session — forwards, resumes, migration — so a session's durable
// log always has exactly one writer.
type sessEntry struct {
	mu   sync.Mutex
	b    *backend
	held bool // b answered the session OK or accepted its resume
	seq  uint64
}

// Gateway fronts a fleet of dbtouch-serve backends. Create with New,
// serve Handler(), stop with Close.
type Gateway struct {
	opts     Options
	backends []*backend
	client   *http.Client
	instance string // distinguishes this gateway's ReqIDs across restarts

	mu     sync.Mutex
	pins   map[string]*sessEntry
	tables map[string]*sync.Mutex // per-table append fan-out serialization
	closed bool

	done chan struct{}
	wg   sync.WaitGroup

	// Counters for /gatewayz.
	failovers  atomic.Int64
	migrations atomic.Int64
	resumes    atomic.Int64
	replayed   atomic.Int64
	retries    atomic.Int64
}

// New builds a gateway over the given backends and starts its health
// prober. Close releases it.
func New(opts Options) (*Gateway, error) {
	if len(opts.Backends) == 0 {
		return nil, errors.New("gateway: no backends configured")
	}
	orDefault(&opts.RequestTimeout, DefaultRequestTimeout)
	orDefault(&opts.HealthInterval, DefaultHealthInterval)
	orDefault(&opts.ProbeTimeout, opts.HealthInterval)
	orDefault(&opts.FailThreshold, DefaultFailThreshold)
	orDefault(&opts.SuccessThreshold, DefaultSuccessThreshold)
	orDefault(&opts.OpenCooldown, DefaultOpenCooldown)
	// The gateway's own transport: a per-backend idle pool wide enough
	// to keep every concurrent session's connection, and no transparent
	// gzip — nothing on this hop is compressed.
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConns = 0 // bounded per backend instead
	transport.MaxIdleConnsPerHost = maxIdleConnsPerBackend
	transport.DisableCompression = true
	g := &Gateway{
		opts:     opts,
		client:   &http.Client{Transport: transport},
		instance: strconv.FormatInt(time.Now().UnixNano(), 36),
		pins:     make(map[string]*sessEntry),
		tables:   make(map[string]*sync.Mutex),
		done:     make(chan struct{}),
	}
	seen := make(map[string]bool)
	for _, addr := range opts.Backends {
		base := strings.TrimSuffix(addr, "/")
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		if seen[base] {
			return nil, fmt.Errorf("gateway: duplicate backend %s", base)
		}
		seen[base] = true
		g.backends = append(g.backends, &backend{base: base})
	}
	g.wg.Add(1)
	go g.healthLoop()
	return g, nil
}

// Close stops the health prober and drops the idle backend connections.
// In-flight forwards finish on their own deadlines.
func (g *Gateway) Close() {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.closed = true
	g.mu.Unlock()
	close(g.done)
	g.wg.Wait()
	g.client.CloseIdleConnections()
}

// orDefault fills an unset (zero or negative) option with its default.
func orDefault[T int | time.Duration](v *T, def T) {
	if *v <= 0 {
		*v = def
	}
}

func (g *Gateway) logf(format string, args ...any) {
	if g.opts.Logf != nil {
		g.opts.Logf(format, args...)
	}
}

// healthLoop probes every backend each interval. Probes run
// sequentially: exactly one gateway probe touches a half-open backend
// per tick, which is the no-thundering-herd property the breaker's
// half-open state exists for.
func (g *Gateway) healthLoop() {
	defer g.wg.Done()
	t := time.NewTicker(g.opts.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-g.done:
			return
		case <-t.C:
			for _, b := range g.backends {
				g.probe(b)
			}
		}
	}
}

// probe health-checks one backend and feeds the result to its breaker.
func (g *Gateway) probe(b *backend) {
	state, openedAt := b.breakerState()
	if state == BreakerOpen {
		if time.Since(openedAt) < g.opts.OpenCooldown {
			return // still cooling down; nothing talks to it
		}
		b.toHalfOpen()
		g.logf("gateway: backend %s half-open, probing", b.base)
	}
	b.probes.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), g.opts.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base+"/healthz", nil)
	if err != nil {
		return
	}
	res, err := g.client.Do(req)
	var status int
	var body string
	if err == nil {
		raw, _ := io.ReadAll(io.LimitReader(res.Body, 256))
		res.Body.Close()
		status, body = res.StatusCode, string(raw)
	}
	switch {
	case err == nil && strings.Contains(body, "draining"):
		// Alive but on the way out: not a breaker failure — the process
		// answers and keeps serving in-flight sessions — but no new
		// traffic, and its pinned sessions move off proactively.
		b.noteSuccess(true, g.opts.SuccessThreshold)
		if b.setDraining(true) {
			g.logf("gateway: backend %s draining, migrating its sessions", b.base)
			g.wg.Add(1)
			go func() {
				defer g.wg.Done()
				g.migrateFrom(b)
			}()
		}
	case err == nil && status == http.StatusOK:
		b.setDraining(false)
		if b.noteSuccess(true, g.opts.SuccessThreshold) {
			g.logf("gateway: backend %s recovered, breaker closed", b.base)
		}
	default:
		b.probeFails.Add(1)
		if b.noteFailure(g.opts.FailThreshold) {
			g.logf("gateway: backend %s unhealthy, breaker open (probe: status=%d err=%v)", b.base, status, err)
		}
	}
}

// route picks the backend for a session: rendezvous (highest random
// weight) hashing over the ready backends, excluding one if asked. Every
// gateway instance computes the same placement for the same ready set,
// and losing a backend moves only that backend's sessions.
func (g *Gateway) route(session string, exclude *backend) (*backend, error) {
	var best *backend
	var bestScore uint64
	for _, b := range g.backends {
		if b == exclude || !b.ready() {
			continue
		}
		h := fnv.New64a()
		io.WriteString(h, session)
		h.Write([]byte{0})
		io.WriteString(h, b.base)
		if score := h.Sum64(); best == nil || score > bestScore {
			best, bestScore = b, score
		}
	}
	if best == nil {
		return nil, ErrNoBackends
	}
	return best, nil
}

// entry returns the session's pin-table row, creating it on first use.
func (g *Gateway) entry(session string) *sessEntry {
	g.mu.Lock()
	defer g.mu.Unlock()
	e, ok := g.pins[session]
	if !ok {
		e = &sessEntry{}
		g.pins[session] = e
	}
	return e
}

// dropEntry removes a session from the pin table (after eviction).
func (g *Gateway) dropEntry(session string) {
	g.mu.Lock()
	delete(g.pins, session)
	g.mu.Unlock()
}

// tableLock returns the per-table mutex serializing append fan-out.
func (g *Gateway) tableLock(table string) *sync.Mutex {
	g.mu.Lock()
	defer g.mu.Unlock()
	mu, ok := g.tables[table]
	if !ok {
		mu = &sync.Mutex{}
		g.tables[table] = mu
	}
	return mu
}

// rpcResult is one forwarded response: the HTTP status and Retry-After
// hint control flow reads, and the raw bytes to relay verbatim
// (byte-transparency — the gateway never re-encodes a backend response).
// The envelope is not decoded here: ok reads its outcome off the first
// bytes, and the few paths that need a field of a failure (a 503's error
// text, gone) or of a resume's answer call envelope.
type rpcResult struct {
	status     int
	retryAfter time.Duration
	body       []byte
}

// ok reports whether the response is a 200 OK envelope, from its prefix
// alone: every envelope leads with {"v":<n>,"ok":<bool> (both fields
// come first and are never omitted).
func (res rpcResult) ok() bool {
	rest, found := bytes.CutPrefix(res.body, []byte(`{"v":`))
	if !found || res.status != http.StatusOK {
		return false
	}
	return bytes.HasPrefix(bytes.TrimLeft(rest, "0123456789"), []byte(`,"ok":true`))
}

// envelope decodes the response body. A body that is not an envelope
// reads as the zero Response: not OK, no error text.
func (res rpcResult) envelope() protocol.Response {
	resp, _ := protocol.DecodeResponse(res.body)
	return resp
}

// post forwards one raw /rpc body to a backend under the per-attempt
// deadline.
func (g *Gateway) post(b *backend, raw []byte) (rpcResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), g.opts.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.base+"/rpc", bytes.NewReader(raw))
	if err != nil {
		return rpcResult{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	res, err := g.client.Do(req)
	if err != nil {
		return rpcResult{}, err
	}
	defer res.Body.Close()
	body, err := io.ReadAll(io.LimitReader(res.Body, maxProxyResponseBytes+1))
	if err != nil {
		return rpcResult{}, err
	}
	if int64(len(body)) > maxProxyResponseBytes {
		return rpcResult{}, fmt.Errorf("%w: it exceeds the %d-byte limit", errResponseTooLarge, maxProxyResponseBytes)
	}
	out := rpcResult{status: res.StatusCode, body: body}
	if s := res.Header.Get("Retry-After"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			out.retryAfter = time.Duration(n) * time.Second
		}
	}
	return out, nil
}

// place is the gateway's one placement rule, applied under the session's
// entry lock before anything is sent for it, and resumeOn's only caller.
// The pin stands while its backend is ready, not excluded and known to
// hold the session. Otherwise the session is routed afresh — around
// exclude, a backend that just failed under it — and, when resume is set
// (any op but open and resume), resumed on the chosen backend first. A
// refused resume leaves the backend unknown, and the request that follows
// surfaces the truth: a session that was never opened, or a server
// without durability, has no log. A resume that never reached the backend
// returns that backend with the transport error, for the caller to treat
// as a failed request to it. A pin moved off a draining backend counts as
// a migration, off a failed one as a failover.
func (g *Gateway) place(e *sessEntry, session string, exclude *backend, resume bool) (*backend, error) {
	if e.held && e.b != exclude && e.b.ready() {
		return e.b, nil
	}
	nb, err := g.route(session, exclude)
	if err != nil {
		return nil, err
	}
	if old := e.b; old != nil && old != nb && (old == exclude || !old.ready()) {
		move := "failed over"
		if old.isDraining() {
			move = "migrated"
			g.migrations.Add(1)
		} else {
			g.failovers.Add(1)
		}
		g.logf("gateway: %s session %q %s -> %s", move, session, old.base, nb.base)
	}
	e.b, e.held = nb, false
	if resume {
		e.held, err = g.resumeOn(nb, session)
	}
	return nb, err
}

// resumeOn replays a session's durable log on b and reports whether b
// accepted it; the error is the transport's.
func (g *Gateway) resumeOn(b *backend, session string) (bool, error) {
	raw, _ := protocol.EncodeRequest(protocol.Request{Op: protocol.OpResume, Session: session}) // an op and a string always marshal
	res, err := g.post(b, raw)
	if err != nil {
		return false, err
	}
	resp := res.envelope()
	if !resp.OK {
		return false, nil
	}
	g.resumes.Add(1)
	g.replayed.Add(int64(resp.Replayed))
	return true, nil
}

// retry is the proxy path's one retry step. It reports false once
// *attempt has spent the Retry budget; otherwise it spends one attempt
// and, when wait is set, counts a backed-off retry and sleeps the
// policy's jittered delay, never less than hint (a backend's
// Retry-After). A retry that re-places the request goes at once.
func (g *Gateway) retry(attempt *int, wait bool, hint time.Duration) bool {
	if *attempt >= g.opts.Retry.MaxAttempts() {
		return false
	}
	if wait {
		g.retries.Add(1)
		time.Sleep(g.opts.Retry.Delay(*attempt, hint))
	}
	*attempt++
	return true
}

// routing is everything the gateway reads of a request: enough to check
// the version, pick the forward path and decide on a ReqID stamp. The
// rest of the body (gesture, rows, specs) is the backend's to parse.
type routing struct {
	V       int    `json:"v"`
	Op      string `json:"op"`
	ReqID   string `json:"reqId"`
	Session string `json:"session"`
	Table   string `json:"table"`
}

// peekRequest decodes a body's routing fields with the decoder and the
// version check a backend applies, so the edge accepts no body a backend
// would call malformed on those fields. A body in the protocol's fast
// shape is read by its walk (protocol.PeekRequest); any other goes
// through encoding/json. A rejection is worded by the full decoder — the
// cold path — so it reads exactly as a backend's.
func peekRequest(body []byte) (routing, error) {
	if r, ok := protocol.PeekRequest(body); ok {
		if err := r.CheckVersion(); err != nil {
			return routing{}, err
		}
		return routing{V: r.V, Op: r.Op, ReqID: r.ReqID, Session: r.Session, Table: r.Table}, nil
	}
	var rt routing
	err := json.Unmarshal(body, &rt)
	if err == nil {
		err = protocol.Request{V: rt.V}.CheckVersion()
	}
	if err != nil {
		if _, full := protocol.DecodeRequest(body); full != nil {
			err = full
		}
		return routing{}, err
	}
	return rt, nil
}

// errStampOverflow rejects a request the ReqID stamp would push past the
// backend's own /rpc body bound, where it would be truncated mid-JSON.
var errStampOverflow = fmt.Errorf("request too large: no room for the ReqID stamp under the %d-byte /rpc limit", maxProxyRequestBytes)

// stamp returns body with ,"reqId":"<id>" spliced in front of its
// closing brace. body must have passed peekRequest: a JSON object with
// at least the "v" key, followed by whitespace at most — so the last '}'
// is the object's own and the leading comma is always due. The spliced
// key comes last and JSON decoding lets the last duplicate win, so an
// explicit empty or null reqId earlier in the body is overridden. id
// must need no JSON escaping (gateway ReqIDs are [a-z0-9-]).
func stamp(body []byte, id string) []byte {
	end := bytes.LastIndexByte(body, '}')
	out := make([]byte, 0, len(body)+len(id)+len(`,"reqId":""`))
	out = append(out, body[:end]...)
	out = append(out, `,"reqId":"`...)
	out = append(out, id...)
	out = append(out, '"')
	return append(out, body[end:]...)
}

// dispatch routes one peeked request down the matching forward path.
// raw is the client's original body, relayed untouched but for the
// ReqID stamp (byte-transparency).
func (g *Gateway) dispatch(rt routing, raw []byte) (rpcResult, error) {
	switch {
	case rt.Op == protocol.OpAppend:
		return g.forwardAppend(rt.Table, raw)
	case rt.Session != "":
		return g.forwardSession(rt, raw)
	default:
		return g.forwardAny(raw)
	}
}

// forwardSession forwards one session-scoped request to the backend
// place picks, stamping a ReqID on mutating ops: that makes every retry
// below exactly-once. A transport failure feeds the backend's breaker and
// places the retry around it; a draining backend's refusal re-places at
// once; overload backs off on the same backend; "gone" from a backend
// known to hold the session means it no longer does, and place resumes
// the session there before the retry. The entry lock makes the whole
// sequence atomic per session.
func (g *Gateway) forwardSession(req routing, raw []byte) (rpcResult, error) {
	e := g.entry(req.Session)
	e.mu.Lock()
	defer e.mu.Unlock()
	if req.ReqID == "" && protocol.MutatesSession(req.Op) {
		// The client's bytes, its v included, reach the backend as sent
		// (version echo behaves as if the client spoke direct); the stamp
		// is the one key the gateway adds. A request that already carries
		// a ReqID is forwarded untouched.
		e.seq++
		raw = stamp(raw, "gw-"+g.instance+"-"+strconv.FormatUint(e.seq, 10))
		if len(raw) > maxProxyRequestBytes {
			return rpcResult{}, errStampOverflow
		}
	}

	resume := !protocol.OpensSession(req.Op)
	var failed *backend // the backend the last attempt failed on
	var lastErr error
	for attempt := 0; ; {
		b, err := g.place(e, req.Session, failed, resume)
		failed = nil
		if b == nil {
			// Nowhere (else) to go: back off and let the same backend, or a
			// probe-recovered one, take the retry.
			lastErr = err
			if !g.retry(&attempt, true, 0) {
				break
			}
			continue
		}
		var res rpcResult
		if err == nil {
			res, err = g.post(b, raw)
		}
		if errors.Is(err, errResponseTooLarge) {
			return rpcResult{}, err // the backend answered; another would answer the same
		}
		if err != nil {
			// Transport failure, of the resume or of the request: the
			// request may or may not have executed — its ReqID makes the
			// retry safe.
			lastErr = err
			if b.noteFailure(g.opts.FailThreshold) {
				g.logf("gateway: backend %s failed on request path, breaker open: %v", b.base, err)
			}
			failed = b
			if !g.retry(&attempt, false, 0) {
				break
			}
			continue
		}
		wait, hint := false, time.Duration(0)
		switch {
		case res.ok():
			e.held = true
			if req.Op == protocol.OpEvict {
				g.dropEntry(req.Session)
			}
			return res, nil
		case res.status == http.StatusServiceUnavailable && strings.Contains(res.envelope().Error, "draining"):
			// A draining backend's admission gate, not overload: place
			// elsewhere at once instead of backing off against a server
			// that is leaving.
			if b.setDraining(true) {
				g.logf("gateway: backend %s draining (admission gate)", b.base)
			}
		case res.status == http.StatusServiceUnavailable:
			// Genuine overload: same backend, Retry-After honored.
			wait, hint = true, res.retryAfter
		case resume && e.held && res.envelope().Gone:
			// The backend restarted in place or evicted the session.
			e.held = false
		default:
			return res, nil
		}
		if !g.retry(&attempt, wait, hint) {
			return res, nil // pass the last refusal through
		}
	}
	return rpcResult{}, fmt.Errorf("%w: session %q: %v", protocol.ErrRetriesExhausted, req.Session, lastErr)
}

// forwardAppend fans an append out to every ready backend: each backend
// holds its own in-memory copy of the live tables, so all of them must
// observe every append or their session states diverge. The per-table
// lock keeps concurrent appends in one order everywhere. The first
// backend's response is the client's answer.
func (g *Gateway) forwardAppend(table string, raw []byte) (rpcResult, error) {
	mu := g.tableLock(table)
	mu.Lock()
	defer mu.Unlock()
	var first *rpcResult
	var lastErr error
	for _, b := range g.backends {
		if !b.ready() {
			continue
		}
		res, err := g.post(b, raw)
		if err != nil {
			lastErr = err
			if b.noteFailure(g.opts.FailThreshold) {
				g.logf("gateway: backend %s failed on append fan-out, breaker open: %v", b.base, err)
			}
			continue
		}
		if first == nil {
			r := res
			first = &r
		}
	}
	if first == nil {
		if lastErr == nil {
			lastErr = ErrNoBackends
		}
		return rpcResult{}, lastErr
	}
	return *first, nil
}

// forwardAny forwards a session-less request (stats, unknown ops) to the
// first ready backend, trying the next on transport failure.
func (g *Gateway) forwardAny(raw []byte) (rpcResult, error) {
	var lastErr error = ErrNoBackends
	for _, b := range g.backends {
		if !b.ready() {
			continue
		}
		res, err := g.post(b, raw)
		if err == nil {
			return res, nil
		}
		lastErr = err
		if b.noteFailure(g.opts.FailThreshold) {
			g.logf("gateway: backend %s failed, breaker open: %v", b.base, err)
		}
	}
	return rpcResult{}, lastErr
}

// migrateFrom places every session pinned to b on another backend ahead
// of its next request. Called when b starts draining; each session's
// entry lock serializes the move against in-flight forwards, so the
// durable log never has two writers. A session with nowhere to go stays
// pinned to b, and its next request places it.
func (g *Gateway) migrateFrom(b *backend) {
	g.mu.Lock()
	type pinned struct {
		id string
		e  *sessEntry
	}
	var sessions []pinned
	for id, e := range g.pins {
		sessions = append(sessions, pinned{id, e})
	}
	g.mu.Unlock()
	for _, s := range sessions {
		s.e.mu.Lock()
		if s.e.b == b {
			g.place(s.e, s.id, b, true)
		}
		s.e.mu.Unlock()
	}
}

// Stats is the /gatewayz snapshot.
type Stats struct {
	Backends []BackendStats    `json:"backends"`
	Sessions map[string]string `json:"sessions,omitempty"` // session -> backend
	// Failovers counts re-pins off a failed backend; Migrations counts
	// re-pins off a draining one; Resumes/ReplayedRequests count every
	// log replay — those moves, and first contact with a backend not known
	// to hold the session; Retries counts backed-off attempts on the proxy
	// path.
	Failovers        int64 `json:"failovers"`
	Migrations       int64 `json:"migrations"`
	Resumes          int64 `json:"resumes"`
	ReplayedRequests int64 `json:"replayedRequests"`
	Retries          int64 `json:"retries"`
}

// Stats snapshots the gateway's routing state.
func (g *Gateway) Stats() Stats {
	st := Stats{
		Failovers:        g.failovers.Load(),
		Migrations:       g.migrations.Load(),
		Resumes:          g.resumes.Load(),
		ReplayedRequests: g.replayed.Load(),
		Retries:          g.retries.Load(),
	}
	for _, b := range g.backends {
		st.Backends = append(st.Backends, b.snapshot())
	}
	g.mu.Lock()
	type row struct {
		id string
		e  *sessEntry
	}
	rows := make([]row, 0, len(g.pins))
	for id, e := range g.pins {
		rows = append(rows, row{id, e})
	}
	g.mu.Unlock()
	st.Sessions = make(map[string]string, len(rows))
	for _, r := range rows {
		r.e.mu.Lock()
		b := r.e.b
		r.e.mu.Unlock()
		if b != nil {
			st.Sessions[r.id] = b.base
		}
	}
	return st
}

// anyReady reports whether at least one backend can take traffic.
func (g *Gateway) anyReady() bool {
	for _, b := range g.backends {
		if b.ready() {
			return true
		}
	}
	return false
}

// Handler serves the gateway's HTTP surface: the protocol endpoints
// /rpc and /stream (drop-in for a dbtouch-serve address), /healthz for
// whatever fronts the gateway itself, and /gatewayz for operators.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/rpc", g.handleRPC)
	mux.HandleFunc("/stream", g.handleStream)
	mux.HandleFunc("/healthz", g.handleHealthz)
	mux.HandleFunc("/gatewayz", g.handleGatewayz)
	return mux
}

func (g *Gateway) handleRPC(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body, ok := protocol.ReadRequestBody(w, r)
	if !ok {
		return
	}
	rt, err := peekRequest(body)
	if err != nil {
		// Malformed requests are answered at the edge, like the server.
		protocol.WriteResponse(w, protocol.Errorf("%v", err))
		return
	}
	res, err := g.dispatch(rt, body)
	if err != nil {
		resp := protocol.Overloadedf("gateway: %v", err)
		if errors.Is(err, errStampOverflow) || errors.Is(err, errResponseTooLarge) {
			resp = protocol.Errorf("gateway: %v", err) // retrying cannot help
		}
		resp.V = rt.V
		protocol.WriteResponse(w, resp)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if res.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int(res.retryAfter/time.Second)))
	}
	if res.status != 0 && res.status != http.StatusOK {
		w.WriteHeader(res.status)
	}
	w.Write(res.body)
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if g.anyReady() {
		w.Write([]byte("ready\n"))
		return
	}
	w.WriteHeader(http.StatusServiceUnavailable)
	w.Write([]byte("starting\n"))
}

func (g *Gateway) handleGatewayz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	data, err := json.MarshalIndent(g.Stats(), "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Write(append(data, '\n'))
}
