package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"dbtouch"
	"dbtouch/internal/cache"
	"dbtouch/internal/core"
	"dbtouch/internal/gateway"
	"dbtouch/internal/gesture"
	"dbtouch/internal/iomodel"
	"dbtouch/internal/operator"
	"dbtouch/internal/protocol"
	"dbtouch/internal/sample"
	"dbtouch/internal/session"
	"dbtouch/internal/sessionlog"
	"dbtouch/internal/storage"
	"dbtouch/internal/vclock"
)

// The traced pass attributes time from outside the program. A session
// is a pure function of its script, so the same script runs on twin
// in-process stacks, each entered one public entry point further in:
// loopback HTTP → the /rpc handler on a recorder → decode / HandleRequest
// / encode → the facade's Perform on a bare kernel → gesture synthesis
// and the span kernels replayed over the ranges the results report. The
// twins must answer byte for byte alike. One span is recorded per call;
// a span's parent is the call one entry point further out (its twin, not
// its caller), and self time is a span minus its children.

// span is one timed call. Times are nanoseconds since the pass began.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for an op's outermost span
	Op     int    `json:"op"`     // shared by every span of one request
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the pass ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, op, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name})
	t.spans[len(t.spans)-1].Start = int64(time.Since(t.t0))
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = int64(time.Since(t.t0)) }

// Span names, outermost first.
const (
	spGateway   = "gateway.client_post"  // client → gateway → durable backend, loopback
	spClient    = "protocol.client_post" // client → server, loopback
	spServe     = "protocol.serve_http"  // the /rpc handler on a recorder
	spDecode    = "protocol.decode_request"
	spHandle    = "session.handle" // Manager.HandleRequest
	spEncode    = "protocol.encode_response"
	spLogAppend = "sessionlog.append"      // Store.AppendSession
	spCompact   = "sessionlog.compact"     // Store.CompactSession
	spPerform   = "core.perform"           // facade DB.Perform on a bare kernel
	spSynth     = "gesture.synthesize"     // Gesture.Synthesize
	spFused     = "storage.fused"          // filter+aggregate kernels over the op's spans
	spExtend    = "sample.snapshot_extend" // Versioned.ForSnapshot after an append
	spAppend    = "storage.append_batch"   // Table.AppendBatch
)

// traceResult is what the pass hands back.
type traceResult struct {
	workload    string
	spans       []span
	metrics     map[string]float64
	blockingSum float64
	shares      map[string]float64
}

// write stores the spans as bench/out/trace-<workload>.json.
func (t *traceResult) write(path string) error {
	return writeJSON(path, struct {
		Workload string `json:"workload"`
		Note     string `json:"note"`
		Spans    []span `json:"spans"`
	}{t.workload, "parent = the twin call one public entry point further out; twins run one after another, so a child is not inside its parent's wall-clock interval; self = duration - sum(children durations)", t.spans})
}

// serveMux wires a manager exactly as dbtouch-serve does: /healthz plus
// the protocol handler with the admit gate and the default rpc deadline.
func serveMux(mgr *session.Manager) http.Handler {
	health := protocol.NewHealth()
	health.Set(protocol.HealthReady)
	mux := http.NewServeMux()
	mux.Handle("/healthz", health.Handler())
	mux.Handle("/", protocol.NewHTTPHandler(mgr, protocol.WithAdmitGate(health.Ready), protocol.WithRPCTimeout(time.Minute)))
	return mux
}

// listen serves h on a loopback port with dbtouch-serve's server
// settings and returns its root URL and a stop function.
func listen(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second, ReadTimeout: 30 * time.Second, IdleTimeout: 2 * time.Minute, MaxHeaderBytes: 64 << 10}
	go srv.Serve(ln)
	return "http://" + ln.Addr().String(), func() { srv.Close() }, nil
}

// twins are the stacks of one traced pass.
type twins struct {
	in      *inputs
	closers []func()

	gw      *client          // via the in-process gateway (fleet only)
	net     *client          // straight at a loopback server
	rec     http.Handler     // handler over its own manager
	mgr     *session.Manager // decode / handle / encode twin
	logDir  string           // mgr's session log directory (fleet only)
	logTwin *sessionlog.Store
	db      *dbtouch.DB // bare-kernel twin
	live    *storage.Table
	chain   *sample.Versioned
	objIDs  map[string]int
	replays map[string]*kernelReplay // scan_direct's objects, by name
}

func (tw *twins) close() {
	for i := len(tw.closers) - 1; i >= 0; i-- {
		tw.closers[i]()
	}
}

// durableManager returns a manager teeing into its own store under dir.
func (tw *twins) durableManager(dir string) (*session.Manager, *sessionlog.Store, error) {
	mgr, err := tw.in.newManager()
	if err != nil {
		return nil, nil, err
	}
	store, err := sessionlog.Open(sessionlog.Options{Dir: dir})
	if err != nil {
		return nil, nil, err
	}
	mgr.EnableDurability(store)
	tw.closers = append(tw.closers, func() { mgr.Close(); store.Close() })
	return mgr, store, nil
}

// manager returns a plain or durable manager, as the workload's servers
// run.
func (tw *twins) manager(tag string) (*session.Manager, error) {
	if tw.in.fleet() {
		mgr, _, err := tw.durableManager(filepath.Join(tw.in.dir, "trace-"+tag))
		return mgr, err
	}
	mgr, err := tw.in.newManager()
	if err == nil {
		tw.closers = append(tw.closers, mgr.Close)
	}
	return mgr, err
}

// wireClient is the load generator's own client, so the traced loopback
// call is the code path the untraced run timed (protocol.Client.Do would
// add a response decode the load generator never pays).
func wireClient(base string) *client { return &client{base: base, hc: newHTTPClient()} }

// newTwins builds every stack over the workload's generated data.
func (in *inputs) newTwins() (tw *twins, err error) {
	tw = &twins{in: in, objIDs: map[string]int{}, replays: map[string]*kernelReplay{}}
	defer func() {
		if err != nil {
			tw.close()
		}
	}()
	netMgr, err := tw.manager("net")
	if err != nil {
		return tw, err
	}
	base, stop, err := listen(serveMux(netMgr))
	if err != nil {
		return tw, err
	}
	tw.closers = append(tw.closers, stop)
	tw.net = wireClient(base)

	if in.fleet() {
		// Three durable backends over one shared log directory behind an
		// in-process gateway with the benchmark's gateway flags.
		shared := filepath.Join(in.dir, "trace-fleet")
		var backends []string
		for i := 0; i < fleetBackends; i++ {
			mgr, _, err := tw.durableManager(shared)
			if err != nil {
				return tw, err
			}
			b, stop, err := listen(serveMux(mgr))
			if err != nil {
				return tw, err
			}
			tw.closers = append(tw.closers, stop)
			backends = append(backends, b)
		}
		g, err := gateway.New(gateway.Options{Backends: backends, HealthInterval: gatewayHealthInterval, OpenCooldown: gatewayOpenCooldown})
		if err != nil {
			return tw, err
		}
		tw.closers = append(tw.closers, g.Close)
		gbase, stop, err := listen(g.Handler())
		if err != nil {
			return tw, err
		}
		tw.closers = append(tw.closers, stop)
		tw.gw = wireClient(gbase)
	}

	recMgr, err := tw.manager("rec")
	if err != nil {
		return tw, err
	}
	tw.rec = serveMux(recMgr)
	if tw.mgr, err = tw.manager("mgr"); err != nil {
		return tw, err
	}
	if in.fleet() {
		tw.logDir = filepath.Join(in.dir, "trace-mgr")
		if tw.logTwin, err = sessionlog.Open(sessionlog.Options{Dir: filepath.Join(in.dir, "trace-log")}); err != nil {
			return tw, err
		}
		tw.closers = append(tw.closers, func() { tw.logTwin.Close() })
	}

	tw.db = dbtouch.Open()
	tw.closers = append(tw.closers, tw.db.Manager().Close)
	tw.db.Manager().Catalog().Register(in.static.matrix)
	if in.live() {
		if tw.live, err = newLiveTable(); err != nil {
			return tw, err
		}
		tw.db.Manager().Catalog().RegisterLive(tw.live)
		cfg := core.DefaultConfig()
		tw.chain = sample.NewVersioned(cfg.SampleLevels, cfg.IO.BlockValues)
	}
	return tw, nil
}

// mallocs reads the process's cumulative allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// opStats are the counts taken beside one op's spans.
type opStats struct {
	perform, isAppend bool
	respBytes         int
	handlerAllocs     uint64
	coreAllocs        uint64
	results           []core.Result
	events            int
	kernelBytes       int64
	fusedBytes        int64
	spanRows          []int
}

// tracedPass runs the fixed op count on one client through every twin.
func (in *inputs) tracedPass() (*traceResult, error) {
	tw, err := in.newTwins()
	if err != nil {
		return nil, err
	}
	defer tw.close()
	tr := &tracer{t0: time.Now()}
	gs := in.scripts[0]
	nSetup := 1 + len(gs.setup)
	total := nSetup + in.sc.traceOps[in.workload]
	stats := make([]opStats, total)
	const name = "trace"
	for op := 0; op < total; op++ {
		_, req := sessionRequest(gs, name, op)
		if err := tw.traceOp(tr, op, req, &stats[op]); err != nil {
			return nil, fmt.Errorf("traced op %d (%s): %w", op, req.Op, err)
		}
	}
	res := &traceResult{workload: in.workload, spans: tr.spans, metrics: map[string]float64{}, shares: map[string]float64{}}
	summarize(res, stats, nSetup)
	if err := in.probeLayers(tw, res, stats, nSetup); err != nil {
		return nil, err
	}
	return res, nil
}

// traceOp executes one request on every twin, outermost entry point
// first, and asserts they agree.
func (tw *twins) traceOp(tr *tracer, op int, req protocol.Request, st *opStats) error {
	raw, err := json.Marshal(req)
	if err != nil {
		return err
	}
	st.perform = req.Op == protocol.OpPerform
	st.isAppend = req.Op == protocol.OpAppend
	parent := -1
	var viaGateway []byte
	if tw.gw != nil {
		s := tr.begin(spGateway, op, parent)
		body, ok, err := tw.gw.postRaw(raw)
		tr.end(s)
		if err != nil || !ok {
			return fmt.Errorf("gateway twin: %v %s", err, clip(body))
		}
		viaGateway = bytes.Clone(body)
		parent = s
	}
	sNet := tr.begin(spClient, op, parent)
	viaNet, ok, err := tw.net.postRaw(raw)
	tr.end(sNet)
	if err != nil || !ok {
		return fmt.Errorf("loopback twin: %v %s", err, clip(viaNet))
	}

	hreq := httptest.NewRequest(http.MethodPost, "/rpc", bytes.NewReader(raw))
	rec := httptest.NewRecorder()
	m0 := mallocs()
	sServe := tr.begin(spServe, op, sNet)
	tw.rec.ServeHTTP(rec, hreq)
	tr.end(sServe)
	st.handlerAllocs = mallocs() - m0
	viaRec := rec.Body.Bytes()

	sDec := tr.begin(spDecode, op, sServe)
	decoded, err := protocol.DecodeRequest(raw)
	tr.end(sDec)
	if err != nil {
		return err
	}
	sHandle := tr.begin(spHandle, op, sServe)
	handled := tw.mgr.HandleRequest(decoded)
	tr.end(sHandle)
	sEnc := tr.begin(spEncode, op, sServe)
	viaMgr, err := protocol.EncodeResponse(handled)
	tr.end(sEnc)
	if err != nil {
		return err
	}
	if !handled.OK {
		return fmt.Errorf("manager twin: %s", handled.Error)
	}
	st.respBytes = len(viaMgr)
	for twin, got := range map[string][]byte{"gateway": viaGateway, "loopback": viaNet, "recorder": viaRec} {
		if got != nil && !bytes.Equal(got, viaMgr) {
			return fmt.Errorf("%s twin answered differently from the manager twin\n got:  %s\n want: %s", twin, clip(got), clip(viaMgr))
		}
	}

	if tw.logTwin != nil && req.Session != "" && req.Op != protocol.OpEvict {
		// The durable manager tees each executed request into its log
		// inside HandleRequest; the same payload into a twin store times
		// that append (and the compaction it triggers) on its own.
		payload, err := protocol.EncodeRequest(decoded)
		if err != nil {
			return err
		}
		s := tr.begin(spLogAppend, op, sHandle)
		tail, err := tw.logTwin.AppendSession(req.Session, payload)
		tr.end(s)
		if err != nil {
			return err
		}
		if tail >= tw.logTwin.CompactBytes() {
			s := tr.begin(spCompact, op, sHandle)
			err := tw.logTwin.CompactSession(req.Session, sessionlog.CheckpointMeta{})
			tr.end(s)
			if err != nil {
				return err
			}
		}
	}

	switch {
	case st.isAppend:
		return tw.traceAppend(tr, op, raw, sHandle)
	case st.perform:
		return tw.tracePerform(tr, op, req, handled, sHandle, st)
	default:
		// Lifecycle and configuration requests reach the bare kernel
		// through its own manager: the facade's session is "main".
		if req.Op != protocol.OpOpen {
			req.Session = "main"
			resp := tw.db.Manager().HandleRequest(req)
			if !resp.OK {
				return fmt.Errorf("kernel twin: %s", resp.Error)
			}
			if req.Op == protocol.OpCreate {
				tw.objIDs[req.Object] = resp.ObjectID
			}
		}
		return nil
	}
}

// traceAppend applies an append request to the bare twin's live table.
func (tw *twins) traceAppend(tr *tracer, op int, raw []byte, parent int) error {
	decoded, err := protocol.DecodeRequest(raw)
	if err != nil {
		return err
	}
	rows := make([][]storage.Value, len(decoded.Rows))
	for i, r := range decoded.Rows {
		vals := make([]storage.Value, len(r))
		for j, cell := range r {
			vals[j] = protocol.CoerceValue(cell)
		}
		rows[i] = vals
	}
	s := tr.begin(spAppend, op, parent)
	_, err = tw.live.AppendBatch(rows)
	tr.end(s)
	return err
}

// tracePerform runs the gesture on the bare kernel, then replays its
// synthesis and its span kernels on their own.
func (tw *twins) tracePerform(tr *tracer, op int, req protocol.Request, handled protocol.Response, parent int, st *opStats) error {
	id, ok := tw.objIDs[req.Object]
	if !ok {
		return fmt.Errorf("kernel twin has no object %q", req.Object)
	}
	g := *req.Gesture
	g.Target = id
	obj, err := tw.db.Kernel().Object(id)
	if err != nil {
		return err
	}
	frame, now := obj.View().Frame(), tw.db.Now()

	kb0, m0 := storage.KernelBytes(), mallocs()
	sPerform := tr.begin(spPerform, op, parent)
	results, err := tw.db.Perform(g)
	tr.end(sPerform)
	st.coreAllocs = mallocs() - m0
	st.kernelBytes = storage.KernelBytes() - kb0
	if err != nil {
		return fmt.Errorf("kernel twin: %w", err)
	}
	st.results = results
	want, _ := json.Marshal(handled.Results)
	got, _ := json.Marshal(protocol.FrameResults(results))
	if !bytes.Equal(got, want) {
		return fmt.Errorf("kernel twin produced different results from the manager twin\n got:  %s\n want: %s", clip(got), clip(want))
	}
	if tw.live != nil {
		// A perform after an append starts by extending the live column's
		// sample chain to the new snapshot; a twin chain times that alone.
		snap := tw.live.Snapshot()
		col, err := snap.Matrix.Column(liveValueCol)
		if err != nil {
			return err
		}
		s := tr.begin(spExtend, op, sPerform)
		_, err = tw.chain.ForSnapshot(snap.Gen, col)
		tr.end(s)
		if err != nil {
			return err
		}
	}

	sSynth := tr.begin(spSynth, op, sPerform)
	events, err := g.Synthesize(gesture.Synth{}, frame, now)
	tr.end(sSynth)
	if err != nil {
		return err
	}
	st.events = len(events)
	return tw.replayKernels(tr, op, req.Object, obj, results, sPerform, st)
}

// kernelReplay re-runs one scan_direct object's filter+aggregate kernels
// outside the kernel, as core.Object's slide step runs them: cost-model
// trackers of its own kind (so a fused scan is chunked by BlockValues, as
// in production) and a running aggregate that, like the object's, lives
// from configure to the end of the session.
type kernelReplay struct {
	pred     operator.Predicate
	fusable  bool // through operator.FuseFilterAgg; float sums are not
	agg      *operator.RunningAgg
	predTr   *iomodel.Tracker
	valTr    *iomodel.Tracker
	trackers []*iomodel.Tracker // by matrix column, as Predicate.EvalRange wants them
	sel      []int32
}

// newKernelReplay builds the replay state of the named scan object, nil
// if the workload has no such object.
func (tw *twins) newKernelReplay(object string, m *storage.Matrix) (*kernelReplay, error) {
	if tw.in.workload != wScan {
		return nil, nil
	}
	for _, spec := range scanObjects {
		if spec.name != object {
			continue
		}
		colIdx := m.ColumnIndex(spec.col)
		col, err := m.Column(colIdx)
		if err != nil {
			return nil, err
		}
		cmp, err := operator.ParseCmpOp(spec.op)
		if err != nil {
			return nil, err
		}
		kind, err := operator.ParseAggKind(spec.agg)
		if err != nil {
			return nil, err
		}
		operand := storage.StringValue(spec.operand)
		if col.Type() != storage.String {
			f, err := strconv.ParseFloat(spec.operand, 64)
			if err != nil {
				return nil, err
			}
			operand = storage.FloatValue(f)
		}
		cfg, clock := core.DefaultConfig(), vclock.New()
		tracker := func() *iomodel.Tracker { return iomodel.New(clock, cfg.IO, cache.NewGestureAware(8)) }
		rp := &kernelReplay{
			pred:     operator.Predicate{Col: colIdx, Op: cmp, Operand: operand},
			fusable:  !(col.Type() == storage.Float64 && (kind == operator.Sum || kind == operator.Avg)),
			agg:      operator.NewRunningAgg(kind),
			predTr:   tracker(),
			valTr:    tracker(),
			trackers: make([]*iomodel.Tracker, m.NumCols()),
		}
		rp.trackers[colIdx] = rp.predTr
		return rp, nil
	}
	return nil, nil
}

// replayKernels re-runs the filter+aggregate kernels over the tuple
// ranges the op's results report, on the level column each result names:
// fusable aggregates through operator.FuseFilterAgg, float sums through
// the selection-vector path production takes for them. The replay must
// scan exactly the bytes the kernel twin scanned and arrive at exactly
// the aggregates its results carry, or the pass fails.
func (tw *twins) replayKernels(tr *tracer, op int, object string, obj *core.Object, results []core.Result, parent int, st *opStats) error {
	rp, known := tw.replays[object]
	if !known {
		var err error
		if rp, err = tw.newKernelReplay(object, obj.Matrix()); err != nil {
			return err
		}
		tw.replays[object] = rp
	}
	if rp == nil || len(results) == 0 {
		return nil
	}
	m := obj.Matrix()
	// One step per slide sample that scanned, in core's spanBounds: the
	// touched tuple alone on a gesture's first sample, then (prev, id]
	// sliding down or [id, prev) sliding up. result is the index of the
	// result the step emitted, -1 if its rows were all filtered out.
	type step struct {
		lo, hi, dir, result int
		col                 *storage.Column
	}
	steps := make([]step, 0, len(results)+1)
	prev := -1
	for i, r := range results {
		lvl, err := obj.Hierarchy().Level(r.Level)
		if err != nil {
			return err
		}
		if lvl.Stride != 1 {
			return fmt.Errorf("filtered result at level %d with stride %d: the replay expects base-resolution spans", r.Level, lvl.Stride)
		}
		sp := step{lo: r.TupleID, hi: r.TupleID + 1, result: i, col: lvl.Col}
		switch {
		case prev >= 0 && r.TupleID > prev:
			sp.lo, sp.dir = prev+1, 1
		case prev >= 0:
			sp.hi, sp.dir = prev, -1
		}
		steps = append(steps, sp)
		prev = r.TupleID
	}
	// A first sample whose one tuple fails the WHERE emits nothing, and the
	// results do not say where it landed. The bytes the kernel twin scanned
	// do: what the steps above leave unexplained is that tuple plus the
	// stretch from it to the first result. (The aggregates checked below
	// hold only if this reconstruction is the span production scanned.)
	width := int64(8)
	if steps[0].col.Type() == storage.String {
		width = 4 // dictionary codes
	}
	unexplained := st.kernelBytes / width
	for _, sp := range steps {
		unexplained -= int64(sp.hi - sp.lo)
	}
	if gap := int(unexplained); gap > 0 {
		first, silent := steps[0], steps[0]
		silent.result = -1
		if len(results) > 1 && results[1].TupleID < first.lo {
			silent.lo, silent.hi = first.lo+gap, first.lo+gap+1
			first.hi, first.dir = silent.lo, -1
		} else {
			silent.lo, silent.hi = first.lo-gap, first.lo-gap+1
			first.lo, first.dir = silent.hi, 1
		}
		steps = append([]step{silent, first}, steps[1:]...)
	}
	for _, sp := range steps {
		if sp.result >= 0 {
			st.spanRows = append(st.spanRows, sp.hi-sp.lo)
		}
	}
	type point struct {
		agg float64
		n   int64
	}
	got := make([]point, len(results))
	var err error
	kb0 := storage.KernelBytes()
	s := tr.begin(spFused, op, parent)
	for _, sp := range steps {
		rp.valTr.SetDirection(sp.dir)
		if rp.fusable {
			fa := operator.FuseFilterAgg(sp.col, sp.lo, sp.hi, nil, rp.pred.Op, rp.pred.Operand, rp.predTr, rp.valTr, rp.agg.Kind())
			rp.agg.AddSpan(int64(fa.N), fa.Sum, fa.Min, fa.Max)
		} else {
			if rp.sel, _, err = rp.pred.EvalRange(m, sp.lo, sp.hi, nil, rp.trackers, rp.sel[:0]); err != nil {
				break
			}
			operator.ForEachRun(rp.sel, func(lo, hi int) { rp.valTr.AccessRange(lo, hi) })
			for _, r := range rp.sel {
				rp.agg.Add(sp.col.Float(int(r)))
			}
		}
		if sp.result >= 0 {
			got[sp.result] = point{rp.agg.Value(), rp.agg.N()}
		}
	}
	tr.end(s)
	st.fusedBytes = storage.KernelBytes() - kb0
	if err != nil {
		return err
	}
	if st.fusedBytes != st.kernelBytes {
		return fmt.Errorf("replayed kernels scanned %d bytes, the kernel twin's perform %d", st.fusedBytes, st.kernelBytes)
	}
	for i, r := range results {
		if math.Float64bits(got[i].agg) != math.Float64bits(r.Agg) || got[i].n != r.N {
			return fmt.Errorf("replayed kernels reach %v over %d rows at result %d, the kernel twin reported %v over %d", got[i].agg, got[i].n, i, r.Agg, r.N)
		}
	}
	return nil
}

// spanIndex groups a pass's spans for the arithmetic below.
type spanIndex struct {
	byOp     map[int][]span
	children map[int]int64 // span id → summed child durations
}

func indexSpans(spans []span) spanIndex {
	ix := spanIndex{byOp: map[int][]span{}, children: map[int]int64{}}
	for _, s := range spans {
		ix.byOp[s.Op] = append(ix.byOp[s.Op], s)
		if s.Parent >= 0 {
			ix.children[s.Parent] += s.End - s.Start
		}
	}
	return ix
}

// summarize turns spans and counts into the per-layer metrics.
func summarize(res *traceResult, stats []opStats, nSetup int) {
	ix := indexSpans(res.spans)
	self := map[string][]float64{} // span name → self µs per perform op
	durs := map[string][]float64{} // span name → duration µs per perform op
	apnd := map[string][]float64{} // same, for append ops
	var rootSum, protoSum, belowSum float64
	for op := nSetup; op < len(stats); op++ {
		for _, s := range ix.byOp[op] {
			d := float64(s.End-s.Start) / 1e3
			own := d - float64(ix.children[s.ID])/1e3
			if stats[op].isAppend {
				apnd[s.Name] = append(apnd[s.Name], d)
				continue
			}
			if !stats[op].perform {
				continue
			}
			self[s.Name] = append(self[s.Name], own)
			durs[s.Name] = append(durs[s.Name], d)
			if s.Parent < 0 {
				rootSum += d
			}
			switch s.Name {
			case spClient, spServe, spDecode, spEncode:
				protoSum += own
			case spPerform:
				belowSum += d
			}
		}
	}
	// A layer the workload's requests never entered has no spans and
	// reports nothing.
	m := res.metrics
	put := func(name string, per []float64) {
		if len(per) > 0 {
			m[name] = median(per)
		}
	}
	put("protocol.http_loopback_us", self[spClient])
	put("protocol.handler_self_us", self[spServe])
	put("protocol.decode_request_us", durs[spDecode])
	put("protocol.encode_response_us", durs[spEncode])
	put("session.handle_self_us", self[spHandle])
	put("sessionlog.append_us", durs[spLogAppend])
	put("sessionlog.compact_us", durs[spCompact])
	if _, durable := durs[spLogAppend]; durable {
		m["sessionlog.compactions"] = float64(len(durs[spCompact]))
	}
	put("gateway.hop_us", self[spGateway])
	put("core.perform_self_us", self[spPerform])
	put("gesture.synthesize_us", durs[spSynth])
	put("storage.fused_us", durs[spFused])
	put("sample.snapshot_extend_us", durs[spExtend])
	put("storage.append_us_per_batch", apnd[spAppend])
	// The blocking path of one perform: every layer's median self time
	// over all traced performs, an op that never enters a layer counting
	// zero there. What is left of the untraced median is
	// trace.residual_us.
	performs := len(self[spClient])
	for _, name := range []string{spGateway, spClient, spServe, spDecode, spEncode, spHandle, spLogAppend, spPerform, spSynth, spFused, spExtend} {
		padded := append(make([]float64, performs-len(self[name])), self[name]...)
		res.blockingSum += median(padded)
	}
	if rootSum > 0 {
		res.shares["protocol"] = protoSum / rootSum
		res.shares["below_session_handle"] = belowSum / rootSum
	}

	var respBytes, handlerAllocs, coreAllocs, nResults, events, kernelBytes, levels, spanRows []float64
	var fusedBytes int64
	var fusedNS float64
	for op := nSetup; op < len(stats); op++ {
		st := &stats[op]
		if !st.perform {
			continue
		}
		respBytes = append(respBytes, float64(st.respBytes))
		handlerAllocs = append(handlerAllocs, float64(st.handlerAllocs))
		coreAllocs = append(coreAllocs, float64(st.coreAllocs))
		nResults = append(nResults, float64(len(st.results)))
		events = append(events, float64(st.events))
		kernelBytes = append(kernelBytes, float64(st.kernelBytes))
		for _, r := range st.results {
			levels = append(levels, float64(r.Level))
		}
		for _, n := range st.spanRows {
			spanRows = append(spanRows, float64(n))
		}
		fusedBytes += st.fusedBytes
	}
	for _, d := range durs[spFused] {
		fusedNS += d * 1e3
	}
	m["protocol.response_bytes"] = median(respBytes)
	m["protocol.handler_allocs_per_op"] = median(handlerAllocs)
	m["core.allocs_per_op"] = median(coreAllocs)
	m["core.results_per_op"] = mean(nResults)
	m["gesture.events_per_op"] = mean(events)
	m["storage.kernel_bytes_per_op"] = mean(kernelBytes)
	m["sample.level_mean"] = mean(levels)
	put("storage.span_rows_p50", spanRows)
	if fusedNS > 0 {
		m["storage.fused_gb_s"] = float64(fusedBytes) / fusedNS
	}
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n
}
