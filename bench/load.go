package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dbtouch/internal/protocol"
)

// Closed loop, zero think time: each client sends its next request only
// after the previous answer arrived, on one keep-alive connection.

// slowOp is the latency past which an answered op still counts failed.
const slowOp = time.Second

// okPrefix starts every successful response envelope (v, then ok, lead
// the struct and neither is omitted).
var okPrefix = []byte(fmt.Sprintf(`{"v":%d,"ok":true`, protocol.Version))

// resultMark starts every result frame in a response body; counting it
// avoids decoding ~300-frame responses inside the load generator, which
// shares the cores with the servers.
var resultMark = []byte(`{"kind":`)

// control is the in-process ground truth for one client's session: the
// response bytes of the first pass and a rolling hash after each of the
// first len(prefix)-1 responses. A session is a pure function of its
// script, so every session a client opens must reproduce it.
type control struct {
	bodies [][]byte
	prefix []uint64
}

func rollHash(h uint64, body []byte) uint64 {
	f := fnv.New64a()
	var seed [8]byte
	for i := range seed {
		seed[i] = byte(h >> (8 * i))
	}
	f.Write(seed[:])
	f.Write(body)
	return f.Sum64()
}

// sessionRequest returns the i-th request a session sends: open, the
// script's set-up, then the loop for ever.
func sessionRequest(gs *gestureScript, session string, i int) (kind int8, req protocol.Request) {
	kind = -1 // lifecycle and set-up requests have no latency class
	switch {
	case i == 0:
		return kind, protocol.Request{V: protocol.Version, Op: protocol.OpOpen, Session: session}
	case i <= len(gs.setup):
		req = gs.setup[i-1]
	default:
		st := gs.loop[(i-1-len(gs.setup))%len(gs.loop)]
		kind, req = st.kind, st.req
	}
	req.V = protocol.Version
	if req.Op != protocol.OpAppend {
		req.Session = session
	}
	return kind, req
}

// buildControls computes every client's control. It runs before any
// server is spawned, so none of it is billed to setup_s.
func (in *inputs) buildControls() error {
	for c := range in.scripts {
		ctl, err := in.buildControl(c, in.sc.verifyOps[in.workload])
		if err != nil {
			return err
		}
		in.controls = append(in.controls, ctl)
	}
	return nil
}

// buildControl executes the first n requests of the client's session on
// a fresh in-process manager, entering through the same JSON decode the
// wire uses.
func (in *inputs) buildControl(client, n int) (*control, error) {
	mgr, err := in.newManager()
	if err != nil {
		return nil, err
	}
	defer mgr.Close()
	gs := in.scripts[client]
	ctl := &control{prefix: []uint64{0}}
	pass := 1 + len(gs.setup) + len(gs.loop)
	for i := 0; i < n || i < pass; i++ {
		_, req := sessionRequest(gs, "control", i)
		body, err := wireExec(mgr, req)
		if err != nil {
			return nil, fmt.Errorf("control request %d (%s): %w", i, req.Op, err)
		}
		if i < pass {
			ctl.bodies = append(ctl.bodies, body)
		}
		if i < n {
			ctl.prefix = append(ctl.prefix, rollHash(ctl.prefix[i], body))
		}
	}
	return ctl, nil
}

// wireExec runs one request through encode → decode → HandleRequest →
// encode, returning the response bytes a server would send.
func wireExec(r protocol.Router, req protocol.Request) ([]byte, error) {
	raw, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	decoded, err := protocol.DecodeRequest(raw)
	if err != nil {
		return nil, err
	}
	resp := r.HandleRequest(decoded)
	if !resp.OK {
		return nil, fmt.Errorf("server: %s", resp.Error)
	}
	return protocol.EncodeResponse(resp)
}

// opSample is one timed op of a measured slice.
type opSample struct {
	kind  int8
	slice int16
	dur   time.Duration
}

// The measured window is cut into slices. A client changes slice only
// between two passes of its script, so every slice holds whole passes —
// the same mix of ops, whatever their lengths — and between its ops it
// runs bursts of the reference load (reference.go), which say how fast the
// host was during the slice. Every timing metric is computed per slice, at
// reference speed, and reported as the median over the slices: a
// disturbance shorter than half the window does not reach the reported
// value, and the slices' spread says how steady the run was.

// Phases of a run, published to the clients through one atomic; a value
// k > phaseWarm means slice k is being measured.
const (
	phaseHold int32 = -2 // finish the script pass, then wait
	phaseStop int32 = -1 // leave at once
	phaseWarm int32 = 0  // run unmeasured
)

// clientSlice is one client's part of a slice: whole script passes.
type clientSlice struct {
	slice  int
	busy   time.Duration // Σ op latencies: the closed loop's time, bursts excluded
	speeds []float64     // the reference units run between its ops, nominal ÷ measured time
}

// client is one closed-loop wire client.
type client struct {
	id     int
	in     *inputs
	gs     *gestureScript
	ctl    *control
	base   string
	hc     *http.Client
	phase  *atomic.Int32
	parked *atomic.Int32 // clients waiting in phaseHold
	verify int

	// The reference load (reference.go): a burst after every ref.every of
	// op time; round trips go over refHC, a connection of their own.
	ref      *reference
	refHC    *client
	sinceRef time.Duration
	refSel   []int32
	refAcc   refSum

	// onSession runs after a session's set-up succeeded and before its
	// first loop request (stream_ingest attaches its subscriber here).
	onSession func(session string) error

	buf       bytes.Buffer
	cur       int32 // the phase this client's current pass runs under
	slices    []clientSlice
	samples   []opSample
	attempted int
	failed    int
	results   int64 // result frames in loop perform responses
	sessions  int
	// compactions counts append answers whose row count fell: retention
	// compacted the live table (a Gen bump).
	compactions, liveRows int
	mismatch              error
	firstErr              error
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			DialContext:         (&net.Dialer{Timeout: 2 * time.Second}).DialContext,
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
		},
	}
}

// post sends one request and returns the response body, valid until the
// next post.
func (c *client) post(req protocol.Request) ([]byte, bool, error) {
	raw, err := json.Marshal(req)
	if err != nil {
		return nil, false, err
	}
	return c.postRaw(raw)
}

func (c *client) postRaw(raw []byte) ([]byte, bool, error) {
	res, err := c.hc.Post(c.base+"/rpc", "application/json", bytes.NewReader(raw))
	if err != nil {
		return nil, false, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(res.Body)
	res.Body.Close()
	if err != nil {
		return nil, false, err
	}
	body := c.buf.Bytes()
	return body, res.StatusCode == http.StatusOK && bytes.HasPrefix(body, okPrefix), nil
}

// kindIndex maps a latency class to its slot; -1 for unclassified
// lifecycle requests.
func kindIndex(kind string) int8 {
	for i, k := range latencyKinds {
		if k == kind {
			return int8(i)
		}
	}
	return -1
}

// sessionName names the client's n-th session.
func (c *client) sessionName(n int) string {
	return fmt.Sprintf("%s-c%d-s%d", c.in.workload, c.id, n)
}

// runSession drives one session from open until it has served
// rotateEvery performs or the run stops, then evicts it. ready is
// called after the session's first OK loop perform.
func (c *client) runSession(n int, ready func()) error {
	name := c.sessionName(n)
	var hash uint64
	hashed := 0
	performs := 0
	// Loop bodies are marshalled once per session: only the session id
	// changes between sessions.
	loopRaw := make([][]byte, len(c.gs.loop))
	for i := 0; ; i++ {
		kind, req := sessionRequest(c.gs, name, i)
		loopPos := i - 1 - len(c.gs.setup)
		if loopPos == 0 && c.onSession != nil {
			if err := c.onSession(name); err != nil {
				return err
			}
		}
		var raw []byte
		if loopPos >= 0 {
			raw = loopRaw[loopPos%len(loopRaw)]
		}
		if raw == nil {
			var err error
			if raw, err = json.Marshal(req); err != nil {
				return err
			}
			if loopPos >= 0 {
				loopRaw[loopPos%len(loopRaw)] = raw
			}
		}
		ph := c.phase.Load()
		if ph != c.cur && ph != phaseStop && loopPos >= 0 && loopPos%len(c.gs.loop) == 0 {
			ph = c.crossSlice(ph)
		}
		if ph == phaseStop {
			break
		}
		start := time.Now()
		body, ok, err := c.postRaw(raw)
		dur := time.Since(start)
		if err == nil && ok && dur > slowOp && loopPos >= 0 {
			ok = false
			err = fmt.Errorf("%s took %v", req.Op, dur)
		}
		if loopPos < 0 && !ok {
			// A session that cannot be set up cannot be measured.
			return fmt.Errorf("session %s: %s failed: %v %s", name, req.Op, err, clip(body))
		}
		measured := c.cur > phaseWarm
		if measured {
			c.attempted++
			c.slices[len(c.slices)-1].busy += dur
		}
		if c.sinceRef += dur; c.ref != nil && c.sinceRef >= c.ref.every {
			c.sinceRef = 0
			var speeds []float64
			if measured {
				speeds = c.slices[len(c.slices)-1].speeds
			}
			if speeds, err = c.ref.burst(c, speeds); err != nil {
				return err
			}
			if measured {
				c.slices[len(c.slices)-1].speeds = speeds
			}
		}
		if !ok {
			if measured {
				c.failed++
			}
			if c.firstErr == nil {
				c.firstErr = fmt.Errorf("session %s request %d (%s): %v %s", name, i, req.Op, err, clip(body))
			}
			continue
		}
		if hashed < c.verify {
			hash = rollHash(hash, body)
			hashed++
		}
		if req.Op == protocol.OpAppend {
			if resp, err := protocol.DecodeResponse(body); err == nil {
				if measured && resp.Rows < c.liveRows {
					c.compactions++
				}
				c.liveRows = resp.Rows
			}
		}
		if req.Op == protocol.OpPerform {
			performs++
			if loopPos >= 0 {
				c.results += int64(bytes.Count(body, resultMark))
			}
		}
		if measured {
			c.samples = append(c.samples, opSample{kind: kind, slice: int16(c.cur - 1), dur: dur})
		}
		if loopPos >= 0 && req.Op == protocol.OpPerform && ready != nil {
			ready()
			ready = nil
		}
		if performs >= rotateEvery && !c.in.live() {
			break
		}
	}
	if want := c.ctl.prefix[hashed]; hash != want && c.mismatch == nil {
		c.mismatch = fmt.Errorf("session %s: rolling hash of its first %d responses is %016x, in-process control says %016x", name, hashed, hash, want)
	}
	c.sessions++
	if c.in.live() {
		// The stream subscriber is still attached; the caller closes it
		// and the server goes away with the session.
		return nil
	}
	_, ok, err := c.post(protocol.Request{V: protocol.Version, Op: protocol.OpEvict, Session: name})
	if err != nil || !ok {
		return fmt.Errorf("session %s: evict failed: %v", name, err)
	}
	return nil
}

// crossSlice is called between two script passes when the phase has
// moved on: it waits out a hold and opens the client's part of the next
// slice. It returns the phase the next pass runs under.
func (c *client) crossSlice(ph int32) int32 {
	if ph == phaseHold {
		c.parked.Add(1)
		for ph == phaseHold {
			time.Sleep(50 * time.Microsecond)
			ph = c.phase.Load()
		}
		c.parked.Add(-1)
	}
	if ph > phaseWarm {
		c.slices = append(c.slices, clientSlice{slice: int(ph - 1)})
	}
	if ph != phaseStop {
		c.cur = ph
	}
	return ph
}

func clip(b []byte) string {
	if len(b) > 200 {
		b = b[:200]
	}
	return string(b)
}

// run loops sessions until the run stops.
func (c *client) run(ready func()) error {
	for n := 0; c.phase.Load() != phaseStop; n++ {
		if err := c.runSession(n, ready); err != nil {
			return err
		}
		ready = nil
	}
	return nil
}

// preflight replays one full script pass in its own session and
// requires every response to equal the in-process control's, byte for
// byte, before anything is timed.
func (c *client) preflight() error {
	name := c.in.workload + "-preflight"
	for i, want := range c.ctl.bodies {
		_, req := sessionRequest(c.gs, name, i)
		got, ok, err := c.post(req)
		if err != nil || !ok {
			return fmt.Errorf("preflight request %d (%s): %v %s", i, req.Op, err, clip(got))
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("preflight request %d (%s): wire response differs from in-process control\n wire:    %s\n control: %s", i, req.Op, clip(got), clip(want))
		}
	}
	if c.in.live() {
		return nil // shares the live table: left for the server's exit
	}
	_, ok, err := c.post(protocol.Request{V: protocol.Version, Op: protocol.OpEvict, Session: name})
	if err != nil || !ok {
		return fmt.Errorf("preflight evict: %v", err)
	}
	return nil
}

// streamReader holds a session's binary /stream and counts the result
// frames it delivers.
type streamReader struct {
	frames atomic.Int64
	cancel context.CancelFunc
	done   chan struct{}
	err    error
}

// attachStream subscribes with the largest ring the server grants, so a
// frame shortfall means the drop-oldest ring dropped.
func attachStream(base, session string) (*streamReader, error) {
	ctx, cancel := context.WithCancel(context.Background())
	pc := &protocol.Client{Base: base, HTTPClient: &http.Client{Transport: &http.Transport{}}}
	fs, err := pc.OpenStream(ctx, session, 65536, protocol.BinaryContentType)
	if err != nil {
		cancel()
		return nil, err
	}
	if fs.ContentType != protocol.BinaryContentType {
		fs.Close()
		cancel()
		return nil, fmt.Errorf("stream negotiated %q, want the binary encoding", fs.ContentType)
	}
	sr := &streamReader{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(sr.done)
		defer fs.Close()
		for {
			if _, err := fs.Next(); err != nil {
				if ctx.Err() == nil && err != io.EOF {
					sr.err = err
				}
				return
			}
			sr.frames.Add(1)
		}
	}()
	return sr, nil
}

// close detaches the subscriber and waits for its goroutine.
func (sr *streamReader) close() {
	sr.cancel()
	<-sr.done
}

// sliceObs is what the main goroutine observed over one slice, from
// releasing the clients to the last of them finishing its pass.
type sliceObs struct {
	seconds    float64
	cpu        time.Duration // CPU time of all server-side processes
	gatewayCPU time.Duration
	frames     int64 // result frames the /stream subscriber received
}

// window is what one measured window observed.
type window struct {
	slices      []sliceObs
	clients     [][]clientSlice
	seconds     float64
	samples     []opSample
	attempted   int
	failed      int
	sessions    int
	rss         int64
	compactions int
	setup       time.Duration
}

// add appends the slices of the next server start's window.
func (w *window) add(part *window) {
	base := len(w.slices)
	w.slices = append(w.slices, part.slices...)
	for _, s := range part.samples {
		s.slice += int16(base)
		w.samples = append(w.samples, s)
	}
	for i, parts := range part.clients {
		if i == len(w.clients) {
			w.clients = append(w.clients, nil)
		}
		for _, p := range parts {
			p.slice += base
			w.clients[i] = append(w.clients[i], p)
		}
	}
	w.seconds += part.seconds
	w.attempted += part.attempted
	w.failed += part.failed
	w.sessions += part.sessions
	w.compactions += part.compactions
	w.rss = max(w.rss, part.rss)
}

// sliceSeconds is how long the clients are left running per slice; each
// then finishes its script pass.
const sliceSeconds = 0.75

// measure runs the clients against a started topology: set-up (timed
// from spawn), preflight verification, warm-up, then the measured
// window. It returns the window and any verification failure.
func (in *inputs) measure(tp *topology, ref *reference, spawned time.Time, seconds float64) (*window, error) {
	var phase, parked atomic.Int32
	clients := make([]*client, in.clients)
	var sr *streamReader
	defer func() {
		if sr != nil {
			sr.close()
		}
	}()
	for i := range clients {
		clients[i] = &client{
			id: i, in: in, gs: in.scripts[i], ctl: in.controls[i], base: "http://" + tp.front,
			hc: newHTTPClient(), phase: &phase, parked: &parked, verify: in.sc.verifyOps[in.workload],
			ref: ref,
		}
		if ref != nil && ref.srv != nil {
			clients[i].refHC = &client{base: ref.srv.base(), hc: newHTTPClient()}
		}
		if in.live() {
			clients[i].onSession = func(session string) (err error) {
				sr, err = attachStream("http://"+tp.front, session)
				return err
			}
		}
	}
	// Every client sends exactly one message: the time of its first OK
	// loop perform, or the zero time if it returned before one (its own
	// error, or another client's stopped the run).
	var wg sync.WaitGroup
	readyCh := make(chan time.Time, len(clients))
	errs := make([]error, len(clients))
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ready := false
			errs[i] = c.run(func() {
				ready = true
				readyCh <- time.Now()
			})
			if errs[i] != nil {
				phase.Store(phaseStop)
			}
			if !ready {
				readyCh <- time.Time{}
			}
		}()
	}
	// stop ends the run and returns the first client error; errs is read
	// only once every client has returned.
	stop := func() error {
		phase.Store(phaseStop)
		wg.Wait()
		return firstError(errs)
	}
	w := &window{}
	allReady := true
	for range clients {
		at := <-readyCh
		allReady = allReady && !at.IsZero()
		w.setup = max(w.setup, at.Sub(spawned))
	}
	if !allReady {
		if err := stop(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("a client stopped before its first perform")
	}
	if !in.live() {
		// The live table is shared state: a preflight session's appends
		// would shift what the measured session sees, so stream_ingest
		// relies on the rolling-hash check alone.
		pc := &client{in: in, gs: in.scripts[0], ctl: clients[0].ctl, base: "http://" + tp.front, hc: newHTTPClient()}
		if err := pc.preflight(); err != nil {
			stop()
			return nil, err
		}
	}
	time.Sleep(in.sc.warmup)

	read := func() sliceObs {
		s := sliceObs{cpu: tp.cpuTime()}
		if tp.gateway != nil {
			s.gatewayCPU = tp.gateway.cpuTime()
		}
		if sr != nil {
			s.frames = sr.frames.Load()
		}
		return s
	}
	// hold moves the clients from phase from into phaseHold and waits until
	// each has finished its pass. A failed client stores phaseStop, which
	// compare-and-swap never overwrites; hold then reports false.
	hold := func(from int32) bool {
		phase.CompareAndSwap(from, phaseHold)
		for parked.Load() < int32(len(clients)) {
			if phase.Load() == phaseStop {
				return false
			}
			time.Sleep(50 * time.Microsecond)
		}
		return true
	}
	running := hold(phaseWarm)
	for k := int32(1); running && w.seconds < seconds; k++ {
		prev, t0 := read(), time.Now()
		if !phase.CompareAndSwap(phaseHold, k) {
			break
		}
		time.Sleep(time.Duration(sliceSeconds * float64(time.Second)))
		running = hold(k)
		cur, elapsed := read(), time.Since(t0).Seconds()
		w.slices = append(w.slices, sliceObs{
			seconds: elapsed, cpu: cur.cpu - prev.cpu, gatewayCPU: cur.gatewayCPU - prev.gatewayCPU,
			frames: cur.frames - prev.frames,
		})
		w.seconds += elapsed
	}
	w.rss = tp.peakRSS()
	err := stop()
	var wantFrames int64
	for _, c := range clients {
		w.samples = append(w.samples, c.samples...)
		w.clients = append(w.clients, c.slices)
		w.attempted += c.attempted
		w.failed += c.failed
		w.sessions += c.sessions
		w.compactions += c.compactions
		wantFrames += c.results
	}
	if err != nil {
		return w, err
	}
	for _, c := range clients {
		if c.mismatch != nil {
			return w, c.mismatch
		}
	}
	if sr != nil {
		// Every result of every perform since the subscription must come
		// down the stream; give the tail a moment to drain.
		deadline := time.Now().Add(3 * time.Second)
		for sr.frames.Load() < wantFrames && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if got := sr.frames.Load(); got != wantFrames {
			short := wantFrames - got
			if short < 0 {
				return w, fmt.Errorf("/stream delivered %d frames for %d rpc results", got, wantFrames)
			}
			w.failed += int(short)
			w.attempted += int(short)
		}
		if sr.err != nil {
			return w, fmt.Errorf("/stream: %w", sr.err)
		}
	}
	if w.failed > 0 {
		for _, c := range clients {
			if c.firstErr != nil {
				fmt.Printf("# first failed op: %v\n", c.firstErr)
				break
			}
		}
	}
	return w, nil
}

func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// quantile returns the q-quantile of sorted durations (nearest rank).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// timings are the window's latencies: all of them, as measured, for the
// percentiles and the per-kind split, and one value per slice, at
// reference speed, for every metric that is reported as a median of
// slices.
type timings struct {
	performs []time.Duration   // every perform, sorted
	byKind   [][]time.Duration // indexed like latencyKinds, each sorted

	opsPerS, p50us, cpuPerOp, gatewayCPUPerOp []float64
	framesPerS, appendRowsPerS, appendP50us   []float64
	speed                                     []float64

	// The two latency medians are taken over every op of the window, each
	// at its slice's reference speed: a slice of one scan_direct pass has
	// too few ops for a steady median of its own.
	performP50, appendP50 float64
}

func (w *window) timings() *timings {
	t := &timings{byKind: make([][]time.Duration, len(latencyKinds))}
	appendKind := kindIndex("append")
	performs := make([][]time.Duration, len(w.slices))
	appends := make([][]time.Duration, len(w.slices))
	for _, s := range w.samples {
		switch {
		case s.kind < 0: // a rotating session's evict, open and set-up
			continue
		case s.kind == appendKind:
			appends[s.slice] = append(appends[s.slice], s.dur)
		default:
			t.performs = append(t.performs, s.dur)
			performs[s.slice] = append(performs[s.slice], s.dur)
		}
		t.byKind[s.kind] = append(t.byKind[s.kind], s.dur)
	}
	sortDurations(t.performs)
	for _, l := range t.byKind {
		sortDurations(l)
	}
	// The closed loop's time in a slice is the clients' summed op time, not
	// the wall clock: reference bursts and the wait for the slowest client
	// to finish its pass are not the system's. A slice's speed is the
	// median of the reference units its clients ran between their ops.
	busy := make([]float64, len(w.slices)) // client-seconds
	speeds := make([][]float64, len(w.slices))
	for _, parts := range w.clients {
		for _, p := range parts {
			if p.slice < len(busy) {
				busy[p.slice] += p.busy.Seconds()
				speeds[p.slice] = append(speeds[p.slice], p.speeds...)
			}
		}
	}
	nClients := float64(len(w.clients))
	var performsAtRef, appendsAtRef []float64
	for k, sl := range w.slices {
		if len(performs[k]) == 0 || busy[k] == 0 || len(speeds[k]) == 0 {
			continue // cut short by a failure; the run reports it
		}
		sortDurations(performs[k])
		sortDurations(appends[k])
		ok := float64(len(performs[k]) + len(appends[k]))
		speed := median(speeds[k])
		seconds := busy[k] / nClients * speed // at reference speed
		raw := micros(quantile(performs[k], 0.5))
		t.speed = append(t.speed, speed)
		t.opsPerS = append(t.opsPerS, float64(len(performs[k]))/seconds)
		t.p50us = append(t.p50us, raw*speed)
		t.cpuPerOp = append(t.cpuPerOp, micros(sl.cpu)/ok*speed)
		t.gatewayCPUPerOp = append(t.gatewayCPUPerOp, micros(sl.gatewayCPU)/ok*speed)
		t.framesPerS = append(t.framesPerS, float64(sl.frames)/seconds)
		t.appendRowsPerS = append(t.appendRowsPerS, float64(len(appends[k])*ingestBatchRows)/seconds)
		t.appendP50us = append(t.appendP50us, micros(quantile(appends[k], 0.5))*speed)
		for _, d := range performs[k] {
			performsAtRef = append(performsAtRef, micros(d)*speed)
		}
		for _, d := range appends[k] {
			appendsAtRef = append(appendsAtRef, micros(d)*speed)
		}
	}
	t.performP50, t.appendP50 = median(performsAtRef), median(appendsAtRef)
	return t
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}
