package core

import (
	"fmt"
	"slices"
	"time"

	"dbtouch/internal/cache"
	"dbtouch/internal/gesture"
	"dbtouch/internal/index"
	"dbtouch/internal/iomodel"
	"dbtouch/internal/metrics"
	"dbtouch/internal/operator"
	"dbtouch/internal/prefetch"
	"dbtouch/internal/sample"
	"dbtouch/internal/storage"
	"dbtouch/internal/touchos"
	"dbtouch/internal/vclock"
)

// PolicyKind selects the cache eviction policy for all trackers.
type PolicyKind uint8

// Cache policies.
const (
	PolicyLRU PolicyKind = iota
	PolicyGestureAware
	PolicyNone
)

// String names the policy.
func (p PolicyKind) String() string {
	switch p {
	case PolicyLRU:
		return "lru"
	case PolicyGestureAware:
		return "gesture-aware"
	case PolicyNone:
		return "none"
	default:
		return fmt.Sprintf("PolicyKind(%d)", uint8(p))
	}
}

// Config tunes the kernel. The defaults model the paper's prototype
// device class (iPad 1): see DefaultConfig.
type Config struct {
	// ScreenW/ScreenH size the root view in centimeters.
	ScreenW, ScreenH float64
	// UIOverhead is the fixed virtual cost per handled touch: gesture
	// recognition, mapping arithmetic, and result rendering/animation.
	// On the 2010 tablet the prototype ran on, this dominates per-touch
	// latency and is what bounds effective touch throughput.
	UIOverhead time.Duration
	// EventOverhead is the small cost of touches that trigger no data
	// processing (touch-down, sub-slop moves).
	EventOverhead time.Duration
	// IO parameterizes all storage cost trackers.
	IO iomodel.Params
	// SampleLevels is the hierarchy depth above base data.
	SampleLevels int
	// UseSamples gates sample-based storage (ablation switch).
	UseSamples bool
	// Prefetch gates gesture-extrapolation prefetching.
	Prefetch bool
	// CachePolicy selects the eviction policy for every tracker.
	CachePolicy PolicyKind
	// AdaptiveOpt gates on-the-fly predicate reordering.
	AdaptiveOpt bool
	// ResponseBound caps the per-touch data-processing estimate; the
	// kernel degrades to coarser sample levels to respect it. Zero
	// disables the bound.
	ResponseBound time.Duration
	// Granularity coarsens touch→tuple mapping (0/1 = full resolution).
	Granularity int
	// ResolutionPerCm overrides digitizer pointing resolution (0 = default).
	ResolutionPerCm float64
}

// DefaultConfig models the prototype setup: a 15x20 cm tablet screen,
// 65ms of UI work per processed touch (which yields the ~14-16
// entries/second the paper's Figure 4 exhibits), tablet-class storage
// latencies, a 14-level sample hierarchy, prefetching and adaptive
// optimization on.
func DefaultConfig() Config {
	return Config{
		ScreenW:       15,
		ScreenH:       20,
		UIOverhead:    65 * time.Millisecond,
		EventOverhead: time.Millisecond,
		IO:            iomodel.DefaultParams(),
		SampleLevels:  14,
		UseSamples:    true,
		Prefetch:      true,
		CachePolicy:   PolicyGestureAware,
		AdaptiveOpt:   true,
	}
}

// SampleSource supplies the shared immutable sample hierarchy for a base
// column. The session layer installs one (via ShareStorage) that
// single-flights construction across sessions, so N sessions exploring
// the same column share one set of sample arrays; a standalone kernel
// builds privately.
type SampleSource func(base *storage.Column, levels int) (*sample.Shared, error)

// Kernel is the dbTouch engine: it owns the screen, the dispatcher, the
// recognizer and all data objects, and processes one touch at a time on
// the virtual clock.
//
// Everything a kernel owns is per-session mutable state — the clock, the
// result log, per-object trackers, prefetchers and cursors — and is
// confined to one goroutine at a time. The catalog and the sample
// hierarchies' columns are the shared immutable layer underneath: a
// standalone kernel makes private ones, while kernels created by the
// session manager share them (ShareStorage) and may run concurrently
// with other sessions' kernels.
type Kernel struct {
	cfg        Config
	clock      *vclock.Clock
	screen     *touchos.View
	dispatcher *touchos.Dispatcher
	recognizer *gesture.Recognizer
	catalog    *storage.Catalog
	samples    SampleSource

	objects map[int]*Object
	byView  map[int]*Object
	nextID  int

	// derived holds session-private tables (hot-region promotions, column
	// projections) when storage is shared: they must not leak into the
	// cross-session catalog or pin entries in the shared sample store.
	// Standalone kernels (no ShareStorage) keep registering into their own
	// catalog and the maps stay nil.
	derived       map[*storage.Matrix]bool
	derivedByName map[string]*storage.Matrix

	// live tracks snapshot pins on live tables; pins is ordered by object
	// creation so repin/rebind order is deterministic (see live.go).
	live  *sample.LiveStore
	pins  []*livePin
	onPin func(table string, epoch uint64)

	// results is the retained window (see Results); events is Perform's
	// synthesis buffer. Both are reused across batches.
	results   []Result
	events    []touchos.TouchEvent
	onResult  func(Result)
	subs      []*ResultStream
	counters  *metrics.Counters
	touchHist metrics.Histogram

	// curTouchStart timestamps the touch being handled, for per-result
	// latency.
	curTouchStart time.Duration
}

// NewKernel builds a kernel with the given config; zero-valued fields
// inherit DefaultConfig.
func NewKernel(cfg Config) *Kernel {
	def := DefaultConfig()
	if cfg.ScreenW <= 0 {
		cfg.ScreenW = def.ScreenW
	}
	if cfg.ScreenH <= 0 {
		cfg.ScreenH = def.ScreenH
	}
	if cfg.UIOverhead <= 0 {
		cfg.UIOverhead = def.UIOverhead
	}
	if cfg.EventOverhead <= 0 {
		cfg.EventOverhead = def.EventOverhead
	}
	if cfg.IO.BlockValues == 0 {
		cfg.IO = def.IO
	}
	if cfg.SampleLevels <= 0 {
		cfg.SampleLevels = def.SampleLevels
	}
	clock := vclock.New()
	return &Kernel{
		cfg:        cfg,
		clock:      clock,
		screen:     touchos.NewScreen(cfg.ScreenW, cfg.ScreenH),
		dispatcher: touchos.NewDispatcher(clock),
		recognizer: gesture.NewRecognizer(gesture.DefaultConfig()),
		catalog:    storage.NewCatalog(),
		objects:    make(map[int]*Object),
		byView:     make(map[int]*Object),
		counters:   metrics.NewCounters(),
	}
}

// ShareStorage rewires the kernel onto an explicitly shared storage
// layer: a catalog common to all sessions and a sample source that
// deduplicates hierarchy construction across them. It must be called
// before any objects are created; the session manager calls it at
// session creation.
func (k *Kernel) ShareStorage(catalog *storage.Catalog, samples SampleSource) {
	if len(k.objects) > 0 {
		panic("core: ShareStorage after objects were created")
	}
	if catalog != nil {
		k.catalog = catalog
	}
	k.samples = samples
	k.derived = make(map[*storage.Matrix]bool)
	k.derivedByName = make(map[string]*storage.Matrix)
}

// registerDerived records a session-derived table (promotion, projection):
// privately when storage is shared, in the kernel's own catalog otherwise.
func (k *Kernel) registerDerived(m *storage.Matrix) {
	if k.derived != nil {
		k.derived[m] = true
		k.derivedByName[m.Name()] = m
		return
	}
	k.catalog.Register(m)
}

// Lookup resolves a table by name: the session's own derived tables
// shadow the shared catalog.
func (k *Kernel) Lookup(name string) (*storage.Matrix, error) {
	if m, ok := k.derivedByName[name]; ok {
		return m, nil
	}
	return k.catalog.Get(name)
}

// sampleShared resolves the sample hierarchy for column base of matrix m:
// through the installed SampleSource when the matrix genuinely lives in
// the shared catalog, privately otherwise (standalone kernels, and
// session-derived tables that must not pin entries in the shared store).
func (k *Kernel) sampleShared(m *storage.Matrix, base *storage.Column, levels int) (*sample.Shared, error) {
	if k.samples != nil && !k.derived[m] {
		if got, err := k.catalog.Get(m.Name()); err == nil && got == m {
			return k.samples(base, levels)
		}
	}
	return sample.BuildShared(base, levels)
}

// Clock exposes the virtual clock.
func (k *Kernel) Clock() *vclock.Clock { return k.clock }

// Screen exposes the root view.
func (k *Kernel) Screen() *touchos.View { return k.screen }

// Catalog exposes the matrix registry.
func (k *Kernel) Catalog() *storage.Catalog { return k.catalog }

// Config returns the active configuration.
func (k *Kernel) Config() Config { return k.cfg }

// Counters exposes kernel counters.
func (k *Kernel) Counters() *metrics.Counters { return k.counters }

// TouchLatency exposes the per-touch busy-time histogram.
func (k *Kernel) TouchLatency() *metrics.Histogram { return &k.touchHist }

// OnResult registers a callback invoked for every emitted result (the
// front-end hook, and the way to observe the full unbounded stream).
// Results are also retained while visible; see Results.
func (k *Kernel) OnResult(fn func(Result)) { k.onResult = fn }

// Results returns the retained results: everything still visible on
// screen (not yet faded) plus all results emitted since the last Apply
// call. The slice is the kernel's own window, read-only and valid until
// the next Apply, which prunes faded results in place — bounding kernel
// memory for long-running sessions; subscribe with OnResult to observe
// the complete stream.
func (k *Kernel) Results() []Result { return k.results }

// newPolicy builds a fresh eviction policy instance per tracker.
func (k *Kernel) newPolicy() iomodel.EvictionPolicy {
	switch k.cfg.CachePolicy {
	case PolicyGestureAware:
		return cache.NewGestureAware(8)
	case PolicyNone:
		return cache.None{}
	default:
		return iomodel.LRU{}
	}
}

// CreateColumnObject registers a visual object over one column of m with
// the given frame, building its sample hierarchy, and returns it. The
// matrix must be column-major (rotate or project first otherwise).
func (k *Kernel) CreateColumnObject(m *storage.Matrix, col int, frame touchos.Rect) (*Object, error) {
	if t, ok := k.catalog.Live(m.Name()); ok {
		return k.createLiveColumnObject(t, col, frame)
	}
	column, err := m.Column(col)
	if err != nil {
		return nil, err
	}
	levels := 0
	if k.cfg.UseSamples {
		levels = k.cfg.SampleLevels
	}
	shared, err := k.sampleShared(m, column, levels)
	if err != nil {
		return nil, err
	}
	h := shared.Attach(k.clock, k.cfg.IO, k.newPolicy)
	o := k.newObject(m, col, frame)
	o.hierarchy = h
	k.finishObject(o)
	return o, nil
}

// createLiveColumnObject binds a column object to the kernel's pinned
// version of a live table; the pin is taken at first use and advanced at
// every batch start (see live.go).
func (k *Kernel) createLiveColumnObject(t *storage.Table, col int, frame touchos.Rect) (*Object, error) {
	lp := k.pinFor(t)
	m := lp.pin.Snap.Matrix
	if _, err := m.Column(col); err != nil {
		return nil, err
	}
	shared, err := lp.pin.Samples(col, k.liveSampleLevels())
	if err != nil {
		return nil, err
	}
	h := shared.Attach(k.clock, k.cfg.IO, k.newPolicy)
	o := k.newObject(m, col, frame)
	o.hierarchy = h
	o.live = t
	o.liveGen = lp.pin.Snap.Gen
	k.finishObject(o)
	return o, nil
}

// CreateTableObject registers a visual object over the whole matrix
// (either layout).
func (k *Kernel) CreateTableObject(m *storage.Matrix, frame touchos.Rect) (*Object, error) {
	var live *storage.Table
	var liveGen uint64
	if t, ok := k.catalog.Live(m.Name()); ok {
		lp := k.pinFor(t)
		m = lp.pin.Snap.Matrix
		live, liveGen = t, lp.pin.Snap.Gen
	}
	if m.NumRows() == 0 {
		return nil, fmt.Errorf("core: table object over empty matrix %q", m.Name())
	}
	o := k.newObject(m, -1, frame)
	o.cellTracker = iomodel.New(k.clock, k.cfg.IO, k.newPolicy())
	o.live = live
	o.liveGen = liveGen
	k.finishObject(o)
	return o, nil
}

func (k *Kernel) newObject(m *storage.Matrix, col int, frame touchos.Rect) *Object {
	k.nextID++
	name := m.Name()
	if col >= 0 {
		name = fmt.Sprintf("%s.%s", m.Name(), m.Schema()[col].Name)
	}
	view := touchos.NewView(name, frame)
	o := &Object{
		id:      k.nextID,
		kernel:  k,
		view:    view,
		matrix:  m,
		colIdx:  col,
		extrap:  &prefetch.Extrapolator{},
		indexes: index.NewRegistry(),
		lastID:  -1,
	}
	o.prefetcher = prefetch.New(o.extrap)
	o.prefetcher.Enabled = k.cfg.Prefetch
	o.SetActions(DefaultActions())
	return o
}

func (k *Kernel) finishObject(o *Object) {
	_ = k.screen.AddChild(o.view)
	k.objects[o.id] = o
	k.byView[o.view.ID()] = o
	k.registerObjectMatrix(o.matrix)
}

// registerObjectMatrix makes an object's backing matrix resolvable by
// name. Standalone kernels register into their own catalog; kernels over
// shared storage keep anything that is not already the catalog's entry
// session-private, so per-session tables never leak across sessions.
func (k *Kernel) registerObjectMatrix(m *storage.Matrix) {
	// A live table's snapshot matrix carries the table's name: registering
	// it (shared or derived) would shadow the live entry with one frozen
	// version, so live names resolve through the catalog's live registry
	// only.
	if k.catalog.IsLive(m.Name()) {
		return
	}
	if k.derived == nil {
		k.catalog.Register(m)
		return
	}
	if k.derived[m] {
		return
	}
	if got, err := k.catalog.Get(m.Name()); err == nil && got == m {
		return
	}
	k.registerDerived(m)
}

// Object resolves an object by id.
func (k *Kernel) Object(id int) (*Object, error) {
	o, ok := k.objects[id]
	if !ok {
		return nil, fmt.Errorf("core: no object %d", id)
	}
	return o, nil
}

// Objects lists all registered objects.
func (k *Kernel) Objects() []*Object {
	out := make([]*Object, 0, len(k.objects))
	for _, o := range k.objects {
		out = append(out, o)
	}
	return out
}

// RemoveObject detaches an object and its view.
func (k *Kernel) RemoveObject(id int) {
	o, ok := k.objects[id]
	if !ok {
		return
	}
	k.screen.RemoveChild(o.view)
	delete(k.byView, o.view.ID())
	delete(k.objects, id)
}

// ProjectColumnOut implements the drag-a-column-out gesture (paper §2.8):
// it materializes column col of a table object as an independent
// single-column object with the given frame.
func (k *Kernel) ProjectColumnOut(tableObj *Object, col int, frame touchos.Rect) (*Object, error) {
	projected, err := tableObj.matrix.Project(col)
	if err != nil {
		return nil, err
	}
	// Copying the column costs one pass over it.
	k.clock.Advance(time.Duration(tableObj.matrix.NumRows()) * 50 * time.Nanosecond)
	k.registerDerived(projected)
	k.counters.Add("gesture.projections", 1)
	return k.CreateColumnObject(projected, 0, frame)
}

// wireJoin connects two objects through one shared symmetric hash join.
func (k *Kernel) wireJoin(o *Object, spec *JoinSpec) {
	other, ok := k.objects[spec.OtherObject]
	if !ok {
		return
	}
	left, right := o, other
	if spec.Side == JoinRight {
		left, right = other, o
	}
	lcol, errL := left.column()
	rcol, errR := right.column()
	if errL != nil || errR != nil {
		return
	}
	j := operator.NewSymmetricHashJoin(lcol, rcol)
	left.join, left.joinSide = j, JoinLeft
	right.join, right.joinSide = j, JoinRight
}

// Apply pushes a batch of raw touch events through the dispatcher and
// returns the results emitted during the batch. The returned slice is a
// view of the kernel's result window: it is valid until the next Apply,
// so a caller that keeps results across batches copies them (the session
// layer does). events is not retained.
func (k *Kernel) Apply(events []touchos.TouchEvent) []Result {
	k.repinLive()
	k.pruneFaded()
	mark := len(k.results)
	k.dispatcher.Dispatch(events, k.handleTouch, k.onIdle)
	return k.results[mark:]
}

// Buffers a kernel keeps between batches are dropped instead when a
// burst grew them past these sizes (a long gesture's events, or the
// results of one), so an idle session holds at most ~100 KB of each.
const (
	keepEvents  = 2048
	keepResults = 512
)

// pruneFaded drops results that have already faded from the screen, so
// the retained window is bounded by the fade horizon instead of the
// session length. Results are emitted in nondecreasing virtual time, so
// the faded ones form a prefix, and the live suffix moves down in place.
func (k *Kernel) pruneFaded() {
	now := k.clock.Now()
	faded := 0
	for faded < len(k.results) && k.results[faded].FadeAt <= now {
		faded++
	}
	if faded == 0 {
		return
	}
	if cap(k.results) > keepResults {
		k.results = slices.Clone(k.results[faded:])
		return
	}
	n := copy(k.results, k.results[faded:])
	clear(k.results[n:])
	k.results = k.results[:n]
}

// handleTouch is the per-touch pipeline of Figure 3: recognize the
// gesture, map the touch to data, execute, emit.
func (k *Kernel) handleTouch(ev touchos.TouchEvent) time.Duration {
	t0 := k.clock.Now()
	k.curTouchStart = t0
	processed := false
	for _, ge := range k.recognizer.Feed(ev) {
		o := k.hitObject(ge.Loc)
		if o == nil {
			k.counters.Add("touch.misses", 1)
			continue
		}
		processed = true
		switch ge.Kind {
		case gesture.Tap:
			o.processTap(ge)
		case gesture.SlideBegan:
			o.beginSlide(ge)
		case gesture.SlideStep:
			o.processSlideStep(ge)
		case gesture.PinchEnded:
			o.applyZoom(ge.Scale)
		case gesture.RotateEnded:
			o.applyRotate(ge.Angle)
		}
	}
	dataTime := k.clock.Now() - t0
	busy := k.cfg.EventOverhead + dataTime
	if processed {
		busy = k.cfg.UIOverhead + dataTime
	}
	k.touchHist.Observe(busy)
	k.counters.Add("touch.handled", 1)
	return busy
}

// hitObject resolves the data object under a screen point.
func (k *Kernel) hitObject(p touchos.Point) *Object {
	v := k.screen.HitTest(p)
	if v == nil {
		return nil
	}
	for ; v != nil; v = v.Parent() {
		if o, ok := k.byView[v.ID()]; ok {
			return o
		}
	}
	return nil
}

// onIdle gives background machinery the gap between touches: prefetchers
// warm predicted blocks, layout conversions advance.
func (k *Kernel) onIdle(from, to time.Duration) {
	budget := to - from
	if budget <= 0 {
		return
	}
	for _, o := range k.objects {
		if o.conv != nil {
			o.advanceConversion(budget)
			continue
		}
		if o.prefetcher == nil || !o.prefetcher.Enabled || o.hierarchy == nil {
			continue
		}
		lvl, err := o.hierarchy.Level(o.lastLevel)
		if err != nil {
			continue
		}
		stride := lvl.Stride
		n := lvl.Col.Len()
		o.prefetcher.OnIdle(from, to, lvl.Tracker, func(baseID int) int {
			idx := baseID / stride
			if idx < 0 {
				return 0
			}
			if idx >= n {
				return n - 1
			}
			return idx
		})
	}
}

// RunIdle hands the window [from, to) to the background machinery and
// advances the clock to its end — the user lifted the finger. Exposed for
// the facade and tests; the dispatcher calls onIdle directly for gaps
// inside event streams.
func (k *Kernel) RunIdle(from, to time.Duration) {
	if to <= from {
		return
	}
	k.onIdle(from, to)
	k.clock.AdvanceTo(to)
}

// emit records a result, stamping times and latency, and fans it out to
// the OnResult callback and every live subscribed stream (closed streams
// are unsubscribed here).
func (k *Kernel) emit(r Result) {
	r.Time = k.clock.Now()
	r.FadeAt = r.Time + FadeAfter
	r.Latency = k.clock.Now() - k.curTouchStart
	k.results = append(k.results, r)
	k.counters.Add("results.emitted", 1)
	if k.onResult != nil {
		k.onResult(r)
	}
	if len(k.subs) > 0 {
		live := k.subs[:0]
		for _, s := range k.subs {
			if s.push(r) {
				live = append(live, s)
			}
		}
		for i := len(live); i < len(k.subs); i++ {
			k.subs[i] = nil
		}
		k.subs = live
	}
}

// Perform executes a serializable gesture description against its target
// object: the description is synthesized into a digitizer-rate touch
// stream starting at the current virtual instant and pushed through the
// normal touch pipeline, so a performed gesture is byte-identical to the
// same gesture driven by raw events. KindMove applies directly (it is a
// UI reposition, not a touch). Unknown targets and invalid descriptions
// return an error without advancing the clock. As with Apply, the results
// are valid until the kernel's next Apply.
func (k *Kernel) Perform(g gesture.Gesture) ([]Result, error) {
	o, err := k.Object(g.Target)
	if err != nil {
		return nil, err
	}
	if g.Kind == gesture.KindMove {
		if err := g.Validate(); err != nil {
			return nil, err
		}
		f := o.view.Frame()
		f.Origin = touchos.Point{X: g.X, Y: g.Y}
		o.view.SetFrame(f)
		return nil, nil
	}
	events, err := g.AppendEvents(k.events[:0], gesture.Synth{}, o.view.Frame(), k.clock.Now())
	if err != nil {
		return nil, err
	}
	results := k.Apply(events)
	if cap(events) <= keepEvents {
		k.events = events
	}
	return results, nil
}
