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
// capped exponential backoff with full jitter (the shared
// protocol.Backoff policy), Retry-After honored on 503. Mutating
// requests are stamped with a per-session ReqID before forwarding, so a
// retried request whose response was lost in flight is answered from
// the session's dedupe cache instead of executing twice — which is what
// makes retrying performs safe at all.
//
// The forward path parses nothing it does not route on. A request is
// peeked for its five routing fields and then travels as the client
// sent it: the backend receives the client's bytes verbatim plus at
// most one spliced key (the ReqID stamp). A response is relayed as the
// backend sent it: its bytes are never re-encoded, and are parsed only
// where control flow reads a field of them — on a non-200 status, after
// an evict, and after the gateway's own resume — never on the 200 path
// of a forwarded touch.
//
// Failover is resume-based: all backends share one -session-dir, every
// executed request is teed into the session's durable log by whichever
// backend is pinned, and when that backend dies the gateway re-pins the
// session and replays OpResume on the new backend before forwarding the
// in-flight request. The client observes a slower request, not a lost
// session. A draining backend (SIGTERM) flips its /healthz to
// "draining"; the gateway stops routing to it and proactively migrates
// its pinned sessions the same way.
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

// maxProxyRequestBytes bounds one forwarded request body (matches the
// server's own /rpc bound).
const maxProxyRequestBytes = 1 << 20

// maxProxyResponseBytes bounds one forwarded response body (matches the
// client's own decode bound).
const maxProxyResponseBytes = 64 << 20

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
	// Retry is the proxy path's backoff policy (shared protocol.Backoff
	// semantics: capped exponential, full jitter, Retry-After floored).
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

// sessEntry is one session's pin-table row: the backend it lives on and
// the ReqID sequence. The entry mutex serializes everything the gateway
// does for that session — forwards, failover resumes, migration — so a
// session's durable log always has exactly one writer.
type sessEntry struct {
	mu  sync.Mutex
	b   *backend
	seq uint64
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

func (g *Gateway) requestTimeout() time.Duration {
	if g.opts.RequestTimeout > 0 {
		return g.opts.RequestTimeout
	}
	return DefaultRequestTimeout
}

func (g *Gateway) healthInterval() time.Duration {
	if g.opts.HealthInterval > 0 {
		return g.opts.HealthInterval
	}
	return DefaultHealthInterval
}

func (g *Gateway) probeTimeout() time.Duration {
	if g.opts.ProbeTimeout > 0 {
		return g.opts.ProbeTimeout
	}
	return g.healthInterval()
}

func (g *Gateway) failThreshold() int {
	if g.opts.FailThreshold > 0 {
		return g.opts.FailThreshold
	}
	return DefaultFailThreshold
}

func (g *Gateway) successThreshold() int {
	if g.opts.SuccessThreshold > 0 {
		return g.opts.SuccessThreshold
	}
	return DefaultSuccessThreshold
}

func (g *Gateway) openCooldown() time.Duration {
	if g.opts.OpenCooldown > 0 {
		return g.opts.OpenCooldown
	}
	return DefaultOpenCooldown
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
	t := time.NewTicker(g.healthInterval())
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
		if time.Since(openedAt) < g.openCooldown() {
			return // still cooling down; nothing talks to it
		}
		b.toHalfOpen()
		g.logf("gateway: backend %s half-open, probing", b.base)
	}
	b.probes.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), g.probeTimeout())
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
		b.noteSuccess(true, g.successThreshold())
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
		if b.noteSuccess(true, g.successThreshold()) {
			g.logf("gateway: backend %s recovered, breaker closed", b.base)
		}
	default:
		b.probeFails.Add(1)
		if b.noteFailure(g.failThreshold()) {
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
// The envelope is not decoded here; the few paths that need a field of
// it (a 503's error text, an evict's or a resume's outcome) call
// envelope.
type rpcResult struct {
	status     int
	retryAfter time.Duration
	body       []byte
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
	ctx, cancel := context.WithTimeout(context.Background(), g.requestTimeout())
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
	body, err := io.ReadAll(io.LimitReader(res.Body, maxProxyResponseBytes))
	if err != nil {
		return rpcResult{}, err
	}
	out := rpcResult{status: res.StatusCode, body: body}
	if s := res.Header.Get("Retry-After"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			out.retryAfter = time.Duration(n) * time.Second
		}
	}
	return out, nil
}

// stampedOp lists the session-scoped mutating ops the gateway stamps a
// ReqID onto — exactly the ops the server's durability layer logs, so a
// retried lost-response request dedupes instead of double-executing.
func stampedOp(op string) bool {
	switch op {
	case protocol.OpOpen, protocol.OpCreate, protocol.OpConfigure,
		protocol.OpPerform, protocol.OpIdle, protocol.OpPin:
		return true
	}
	return false
}

// isDraining reports whether a 503 came from a draining backend's
// admission gate (as opposed to genuine overload): route elsewhere
// immediately instead of backing off against a server that is leaving.
func isDraining(res rpcResult) bool {
	return res.status == http.StatusServiceUnavailable &&
		strings.Contains(res.envelope().Error, "draining")
}

// resumeOn replays a session's durable log on a backend before traffic
// lands there — the failover move. Failures are tolerated: a session
// that was never opened (or a server without durability) has no log,
// and the forwarded request that follows surfaces the truth either way.
func (g *Gateway) resumeOn(b *backend, session string) {
	raw, err := protocol.EncodeRequest(protocol.Request{Op: protocol.OpResume, Session: session})
	if err != nil {
		return
	}
	res, err := g.post(b, raw)
	if err != nil {
		return
	}
	resp := res.envelope()
	if !resp.OK {
		return
	}
	g.resumes.Add(1)
	g.replayed.Add(int64(resp.Replayed))
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
// would call malformed on those fields. A rejection is worded by the
// full decoder — the cold path — so it reads exactly as a backend's.
func peekRequest(body []byte) (routing, error) {
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

// forwardSession forwards one session-scoped request to its pinned
// backend, stamping a ReqID on mutating ops, retrying overload with
// backoff, and failing over by resume when the backend dies under it.
// The entry lock makes the whole sequence atomic per session.
func (g *Gateway) forwardSession(req routing, raw []byte) (rpcResult, error) {
	e := g.entry(req.Session)
	e.mu.Lock()
	defer e.mu.Unlock()
	if req.ReqID == "" && stampedOp(req.Op) {
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

	var lastErr error
	for attempt := 0; ; attempt++ {
		b := e.b
		if b == nil || !b.ready() {
			nb, rerr := g.route(req.Session, nil)
			if rerr != nil {
				lastErr = rerr
				if attempt >= g.opts.Retry.MaxAttempts() {
					break
				}
				g.retries.Add(1)
				time.Sleep(g.opts.Retry.Delay(attempt, 0))
				continue
			}
			if b != nil && nb != b {
				// The pin moved while we weren't looking (its backend
				// tripped or drained): replay the session's log first.
				g.failovers.Add(1)
				g.resumeOn(nb, req.Session)
			}
			b, e.b = nb, nb
		}
		res, err := g.post(b, raw)
		if err == nil {
			if res.status == http.StatusServiceUnavailable {
				if isDraining(res) {
					if b.setDraining(true) {
						g.logf("gateway: backend %s draining (admission gate)", b.base)
					}
					e.b = nil // re-route next iteration
					lastErr = fmt.Errorf("gateway: backend %s is draining", b.base)
					if attempt >= g.opts.Retry.MaxAttempts() {
						return res, nil // pass the 503 through
					}
					continue
				}
				// Genuine overload: same backend, Retry-After honored.
				if attempt >= g.opts.Retry.MaxAttempts() {
					return res, nil
				}
				g.retries.Add(1)
				time.Sleep(g.opts.Retry.Delay(attempt, res.retryAfter))
				continue
			}
			if req.Op == protocol.OpEvict && res.envelope().OK {
				g.dropEntry(req.Session)
			}
			return res, nil
		}
		// Transport failure: the request may or may not have executed —
		// its ReqID makes the retry safe. Feed the breaker, re-pin, and
		// replay the log on the replacement before retrying.
		lastErr = err
		if b.noteFailure(g.failThreshold()) {
			g.logf("gateway: backend %s failed on request path, breaker open: %v", b.base, err)
		}
		if attempt >= g.opts.Retry.MaxAttempts() {
			break
		}
		nb, rerr := g.route(req.Session, b)
		if rerr != nil {
			// Nowhere else to go: back off and let the same backend (or
			// a probe-recovered one) take the retry.
			e.b = nil
			g.retries.Add(1)
			time.Sleep(g.opts.Retry.Delay(attempt, 0))
			continue
		}
		g.failovers.Add(1)
		g.resumeOn(nb, req.Session)
		e.b = nb
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
			if b.noteFailure(g.failThreshold()) {
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
		if b.noteFailure(g.failThreshold()) {
			g.logf("gateway: backend %s failed, breaker open: %v", b.base, err)
		}
	}
	return rpcResult{}, lastErr
}

// migrateFrom re-pins every session living on b to a healthy backend,
// replaying each session's log there first. Called when b starts
// draining; each session's entry lock serializes the move against
// in-flight forwards, so the durable log never has two writers.
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
			if nb, err := g.route(s.id, b); err == nil {
				g.resumeOn(nb, s.id)
				s.e.b = nb
				g.migrations.Add(1)
				g.logf("gateway: migrated session %q %s -> %s", s.id, b.base, nb.base)
			} else {
				s.e.b = nil // re-pin lazily when a backend comes back
			}
		}
		s.e.mu.Unlock()
	}
}

// Stats is the /gatewayz snapshot.
type Stats struct {
	Backends []BackendStats    `json:"backends"`
	Sessions map[string]string `json:"sessions,omitempty"` // session -> backend
	// Failovers counts re-pins forced by backend failure; Migrations
	// counts proactive drain-time re-pins; Resumes/ReplayedRequests
	// count the log replays that made them invisible; Retries counts
	// backed-off attempts on the proxy path.
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
	body, err := io.ReadAll(io.LimitReader(r.Body, maxProxyRequestBytes))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	rt, err := peekRequest(body)
	if err != nil {
		// Malformed requests are answered at the edge, like the server.
		writeEnvelope(w, protocol.Errorf("%v", err), 0)
		return
	}
	res, err := g.dispatch(rt, body)
	if err != nil {
		resp := protocol.Overloadedf("gateway: %v", err)
		if errors.Is(err, errStampOverflow) {
			resp = protocol.Errorf("gateway: %v", err) // retrying cannot help
		}
		writeEnvelope(w, resp, rt.V)
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

// writeEnvelope emits a gateway-originated response envelope; overloaded
// envelopes get the 503 + Retry-After rendering clients already speak.
func writeEnvelope(w http.ResponseWriter, resp protocol.Response, v int) {
	if v > 0 {
		resp.V = v
	}
	w.Header().Set("Content-Type", "application/json")
	data, err := protocol.EncodeResponse(resp)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if resp.Overloaded {
		ra := resp.RetryAfter
		if ra <= 0 {
			ra = protocol.DefaultRetryAfterSec
		}
		w.Header().Set("Retry-After", strconv.Itoa(ra))
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	w.Write(data)
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
