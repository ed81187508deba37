// Package dbtouch is a touch-driven database kernel for interactive data
// exploration, reproducing "dbTouch: Analytics at your Fingertips"
// (Idreos & Liarou, CIDR 2013).
//
// Data objects — columns and tables — live on a simulated touch screen.
// Queries are not statements but gestures: sliding a finger over an
// object scans it, runs running aggregates, or produces interactive
// summaries; pinching zooms the object (changing the data granularity a
// slide can reach); rotating flips the physical layout between row- and
// column-order. The user's touch stream controls the data flow; the
// kernel reacts to every touch, feeding from sample hierarchies,
// prefetching along the predicted gesture path, and adapting query plans
// on the fly.
//
// Everything runs on a virtual clock, so exploration sessions and
// benchmarks are deterministic and hardware independent.
//
// Quick start:
//
//	db := dbtouch.Open()
//	db.NewTable("readings").Float("temp", temps).MustCreate()
//	obj, _ := db.NewColumnObject("readings", "temp", 2, 2, 2, 10)
//	obj.Summarize(dbtouch.Avg, 10)
//	results := obj.Slide(2 * time.Second) // slide top to bottom for 2s
//
// Multiple users can explore the same data at once: Session forks a
// handle bound to a new exploration session over the same storage, with
// its own screen, virtual clock and result stream. Drive each session
// handle from its own goroutine; the storage underneath (columns,
// dictionaries, sample hierarchies) is shared and immutable, so sessions
// never contend on the hot path. See ARCHITECTURE.md for the ownership
// contract.
//
//	alice, _ := db.Session("alice")
//	bob, _ := db.Session("bob")
//	go exploreSensors(alice)
//	go exploreSensors(bob)
package dbtouch

import (
	"errors"
	"fmt"
	"io"
	"time"

	"dbtouch/internal/core"
	"dbtouch/internal/gesture"
	"dbtouch/internal/metrics"
	"dbtouch/internal/operator"
	"dbtouch/internal/session"
	"dbtouch/internal/storage"
	"dbtouch/internal/touchos"
	"dbtouch/internal/vclock"
)

// Re-exported result and configuration types. Aliases keep the internal
// kernel private while letting callers name everything they receive.
type (
	// Result is one answer popped up by one touch.
	Result = core.Result
	// ResultKind classifies results.
	ResultKind = core.ResultKind
	// Actions is the per-object touch/query configuration.
	Actions = core.Actions
	// Mode selects what a touch executes.
	Mode = core.Mode
	// AggKind selects an aggregate function.
	AggKind = operator.AggKind
	// Predicate is one WHERE conjunct.
	Predicate = operator.Predicate
	// Config is the kernel configuration (advanced use).
	Config = core.Config
	// Gesture is a serializable gesture description: build one with the
	// Object *Gesture methods (or gesture.New*), ship it anywhere —
	// a script, a wire protocol, a reconnecting client — and execute it
	// with Perform.
	Gesture = gesture.Gesture
	// GestureKind classifies a Gesture.
	GestureKind = gesture.Kind
	// ResultStream is a bounded concurrent cursor over emitted results;
	// see Subscribe.
	ResultStream = core.ResultStream
)

// ErrOverloaded reports an admission-control rejection from the session
// manager: Session past the admission cap. Test with errors.Is and retry
// after a backoff; see docs/operations.md for the tuning knobs.
var ErrOverloaded = session.ErrOverloaded

// Gesture kinds.
const (
	GestureTap          = gesture.KindTap
	GestureSlide        = gesture.KindSlide
	GestureSlidePause   = gesture.KindSlidePause
	GestureBackAndForth = gesture.KindBackAndForth
	GestureZoom         = gesture.KindZoom
	GestureRotate       = gesture.KindRotate
	GestureMove         = gesture.KindMove
)

// Result kinds.
const (
	ScanValue      = core.ScanValue
	AggregateValue = core.AggregateValue
	SummaryValue   = core.SummaryValue
	TuplePeek      = core.TuplePeek
	GroupValue     = core.GroupValue
	JoinMatches    = core.JoinMatches
)

// Touch modes.
const (
	ModeScan      = core.ModeScan
	ModeAggregate = core.ModeAggregate
	ModeSummary   = core.ModeSummary
)

// Aggregate kinds.
const (
	Count  = operator.Count
	Sum    = operator.Sum
	Avg    = operator.Avg
	Min    = operator.Min
	Max    = operator.Max
	Var    = operator.Var
	Stddev = operator.Stddev
)

// Option adjusts the kernel configuration at Open time.
type Option func(*core.Config)

// WithScreen sizes the virtual screen in centimeters.
func WithScreen(w, h float64) Option {
	return func(c *core.Config) { c.ScreenW, c.ScreenH = w, h }
}

// WithUIOverhead sets the fixed per-touch UI cost (device speed knob).
func WithUIOverhead(d time.Duration) Option {
	return func(c *core.Config) { c.UIOverhead = d }
}

// WithSamples toggles sample-based storage.
func WithSamples(on bool) Option {
	return func(c *core.Config) { c.UseSamples = on }
}

// WithPrefetch toggles gesture-extrapolation prefetching.
func WithPrefetch(on bool) Option {
	return func(c *core.Config) { c.Prefetch = on }
}

// WithAdaptiveOptimizer toggles on-the-fly predicate reordering.
func WithAdaptiveOptimizer(on bool) Option {
	return func(c *core.Config) { c.AdaptiveOpt = on }
}

// WithResponseBound caps per-touch processing; the kernel degrades to
// coarser samples to respect it.
func WithResponseBound(d time.Duration) Option {
	return func(c *core.Config) { c.ResponseBound = d }
}

// WithCachePolicy selects "lru", "gesture-aware" or "none".
func WithCachePolicy(name string) Option {
	return func(c *core.Config) {
		switch name {
		case "gesture-aware":
			c.CachePolicy = core.PolicyGestureAware
		case "none":
			c.CachePolicy = core.PolicyNone
		default:
			c.CachePolicy = core.PolicyLRU
		}
	}
}

// WithConfig replaces the whole configuration (advanced use).
func WithConfig(cfg Config) Option {
	return func(c *core.Config) { *c = cfg }
}

// DB is a handle to one exploration session of a dbTouch instance.
// High-level calls (Slide, Tap, ZoomIn...) build serializable gesture
// descriptions and Perform them: each description synthesizes a
// digitizer-rate touch stream at the session's kernel. Open creates the
// instance with a default session; Session forks additional handles over
// the same shared storage. A handle is single-goroutine: drive each
// session's handle from its own goroutine (result streams from Subscribe
// may be consumed anywhere).
type DB struct {
	manager *session.Manager
	sess    *session.Session
	kernel  *core.Kernel
}

// Open creates a dbTouch instance with one default session.
func Open(opts ...Option) *DB {
	cfg := core.DefaultConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	mgr := session.NewManager(cfg)
	sess, err := mgr.Create("main")
	if err != nil {
		panic(err) // fresh manager: "main" cannot collide
	}
	return &DB{manager: mgr, sess: sess, kernel: sess.Kernel()}
}

// Session forks a handle bound to a new exploration session with the
// given id. The new session shares this instance's catalog and sample
// hierarchies (the immutable layer) but owns its own screen, virtual
// clock, dispatcher and result log — it starts at virtual time zero,
// unaffected by gestures on other sessions. Handles for different
// sessions may run on different goroutines concurrently. If the manager
// later evicts the session (Manager().Evict or a SetMaxSessions cap),
// the handle becomes inert: further gestures are dropped. Under
// admission control (Manager().SetAdmissionCap) the error is
// ErrOverloaded: no session was created, back off and retry.
func (db *DB) Session(id string) (*DB, error) {
	s, err := db.manager.Create(id)
	if err != nil {
		return nil, err
	}
	return &DB{manager: db.manager, sess: s, kernel: s.Kernel()}, nil
}

// Resume re-materializes an evicted or crashed session from its
// persisted request log and returns a fresh handle bound to it. It
// requires session durability (Manager().EnableDurability with a
// sessionlog store): the manager replays the session's checkpoint and
// log tail, landing it exactly where the old handle left off — a
// handle that went inert through eviction is replaced, not revived, so
// discard it and drive the returned one. Resuming a still-live session
// returns a second handle onto it without replaying anything, unless
// another process sharing the log directory has run the session since —
// then the live copy is stale and is rebuilt from the log.
func (db *DB) Resume(id string) (*DB, error) {
	if _, err := db.manager.Resume(id); err != nil {
		return nil, err
	}
	s, ok := db.manager.Get(id)
	if !ok {
		return nil, fmt.Errorf("dbtouch: session %q vanished after resume", id)
	}
	return &DB{manager: db.manager, sess: s, kernel: s.Kernel()}, nil
}

// SessionID reports which session this handle drives.
func (db *DB) SessionID() string { return db.sess.ID() }

// Manager exposes the session manager for advanced multi-user scenarios
// (eviction, session caps, event routing by id).
func (db *DB) Manager() *session.Manager { return db.manager }

// Kernel exposes the underlying kernel for advanced scenarios and the
// benchmark harness.
func (db *DB) Kernel() *core.Kernel { return db.kernel }

// Clock exposes the virtual clock.
func (db *DB) Clock() *vclock.Clock { return db.kernel.Clock() }

// Now reports the current virtual time.
func (db *DB) Now() time.Duration { return db.kernel.Clock().Now() }

// LoadCSV loads a table from CSV (header "name:TYPE,..." — see
// storage.ReadCSV) and registers it.
func (db *DB) LoadCSV(name string, r io.Reader) error {
	m, err := storage.ReadCSV(name, r)
	if err != nil {
		return err
	}
	db.kernel.Catalog().Register(m)
	return nil
}

// Tables lists loaded table names.
func (db *DB) Tables() []string { return db.kernel.Catalog().List() }

// TouchLatency returns the per-touch latency histogram.
func (db *DB) TouchLatency() *metrics.Histogram { return db.kernel.TouchLatency() }

// Results returns the retained results: everything still visible on
// screen plus all results of the latest gesture. Faded results are
// pruned in place when the next gesture starts, so the slice is valid
// until then; use OnResult to observe the full stream.
func (db *DB) Results() []Result { return db.kernel.Results() }

// OnResult registers a live result callback (front-end hook). Prefer
// Subscribe for anything that crosses goroutines or needs backpressure
// accounting: the callback runs inline on the kernel's goroutine.
func (db *DB) OnResult(fn func(Result)) { db.kernel.OnResult(fn) }

// Subscribe opens a bounded stream over every result this session emits
// from now on. The returned cursor is safe to consume from any
// goroutine (Next blocks, TryNext polls); when the consumer falls more
// than buffer results behind, the oldest are dropped and counted
// (ResultStream.Dropped) rather than stalling the touch pipeline.
// buffer <= 0 selects a default size. Close the stream to unsubscribe.
func (db *DB) Subscribe(buffer int) *ResultStream {
	return db.sess.Subscribe(buffer)
}

// Perform executes a gesture description on this session and returns the
// results it produced — the programmatic twin of a finger doing what the
// description says. Descriptions come from the Object *Gesture builders
// or from a decoded wire request; executing a description is
// byte-identical to calling the corresponding Object method. Like Apply,
// Perform on an evicted handle is inert (nil results, nil error); an
// invalid description or unknown target returns an error without
// touching the clock.
func (db *DB) Perform(g Gesture) ([]Result, error) {
	results, err := db.sess.Perform(g)
	if errors.Is(err, session.ErrClosed) {
		return nil, nil
	}
	return results, err
}

// Idle advances virtual time with no touch activity, letting background
// machinery (prefetch, layout conversion) use the gap — e.g. the user
// lifted the finger and is looking at the screen. Same session routing
// and eviction semantics as Apply.
func (db *DB) Idle(d time.Duration) {
	_ = db.sess.Idle(d) // the only error is ErrClosed: an evicted handle is inert
}

// Apply pushes a raw touch-event stream through the session (advanced
// use; the Object methods synthesize streams for you). Routing through
// the session keeps the manager's recently-used ordering honest and
// serializes against any concurrent driver of the same session.
//
// If the session was evicted (manager cap or explicit Evict), the handle
// is inert: gestures are dropped and Apply returns nil.
func (db *DB) Apply(events []touchos.TouchEvent) []Result {
	results, _ := db.sess.Apply(events) // the only error is ErrClosed
	return results
}

// NewColumnObject places column of table on screen at (x, y) with size
// (w, h) centimeters and returns its handle. Tables resolve through the
// session's view: its own derived tables (promotions, projections) shadow
// the shared catalog.
func (db *DB) NewColumnObject(table, column string, x, y, w, h float64) (*Object, error) {
	m, err := db.kernel.Lookup(table)
	if err != nil {
		return nil, err
	}
	idx := m.ColumnIndex(column)
	if idx < 0 {
		return nil, fmt.Errorf("dbtouch: table %q has no column %q", table, column)
	}
	obj, err := db.kernel.CreateColumnObject(m, idx, touchos.NewRect(x, y, w, h))
	if err != nil {
		return nil, err
	}
	return &Object{db: db, inner: obj}, nil
}

// NewTableObject places the whole table on screen as a fat rectangle.
func (db *DB) NewTableObject(table string, x, y, w, h float64) (*Object, error) {
	m, err := db.kernel.Lookup(table)
	if err != nil {
		return nil, err
	}
	obj, err := db.kernel.CreateTableObject(m, touchos.NewRect(x, y, w, h))
	if err != nil {
		return nil, err
	}
	return &Object{db: db, inner: obj}, nil
}

// ProjectColumnOut drags the named column out of a table object into its
// own single-column object at (x, y, w, h) — the paper's §2.8 gesture for
// getting faster response times by touching only the needed data.
func (db *DB) ProjectColumnOut(table *Object, column string, x, y, w, h float64) (*Object, error) {
	idx := table.inner.Matrix().ColumnIndex(column)
	if idx < 0 {
		return nil, fmt.Errorf("dbtouch: no column %q in object %d", column, table.ID())
	}
	obj, err := db.kernel.ProjectColumnOut(table.inner, idx, touchos.NewRect(x, y, w, h))
	if err != nil {
		return nil, err
	}
	return &Object{db: db, inner: obj}, nil
}
