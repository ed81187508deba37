// Package session implements concurrent exploration sessions over shared
// immutable storage — the sharding step toward the ROADMAP's
// millions-of-users north star.
//
// A Session owns everything that is mutable about one user's exploration:
// a kernel with its virtual clock, screen, dispatcher, result log, and
// per-object trackers/prefetchers/cursors. The storage underneath —
// catalog, columns, dictionaries, and the sample hierarchies' columns —
// is the shared immutable layer: built once, read by every session
// without locking on the hot span path (the only synchronization is
// single-flight initialization of lazily copied sample levels and the
// memoized string-predicate tables).
//
// A Manager creates and evicts sessions by ID and routes touch-event
// batches and wire requests to the right session.
//
// Concurrency model: a session is driven by whichever goroutine calls it
// — for served traffic that is net/http's goroutine for the connection —
// and runs one kernel execution at a time under its run lock, so
// concurrent callers of one session serialize and callers of different
// sessions run in parallel on shared storage. An idle session holds no
// goroutine, timer or queue. Because every session's timeline is its own
// virtual clock, a session's result stream is byte-identical whether it
// runs alone, sequentially with others, or concurrently with them on any
// number of goroutines — asserted by the package's equivalence suite
// under the race detector. What bounds a manager is admission, not
// queueing: SetAdmissionCap rejects Create with ErrOverloaded and
// SetMaxSessions evicts the least recently used session.
package session

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dbtouch/internal/core"
	"dbtouch/internal/gesture"
	"dbtouch/internal/protocol"
	"dbtouch/internal/touchos"
)

// Sentinel errors callers can test with errors.Is.
var (
	// ErrClosed reports use of a session after Close or manager eviction.
	ErrClosed = errors.New("session closed")
	// ErrOverloaded reports an admission-control rejection: the
	// live-session admission ceiling was reached (Create). Back off and
	// retry. The wire protocol surfaces it as HTTP 503 + Retry-After.
	ErrOverloaded = errors.New("overloaded")
)

// Session is one user's exploration context: a kernel confined to one
// goroutine at a time, over storage shared with every other session of
// the same Manager. Apply, Perform, Idle and Do run on the calling
// goroutine under the session's run lock.
type Session struct {
	id      string
	manager *Manager
	kernel  *core.Kernel

	closed atomic.Bool
	// runMu serializes kernel execution: concurrent calls on one session
	// run one at a time. Determinism still requires one logical driver
	// per session; the lock only guarantees batches stay atomic, never
	// interleaved.
	runMu sync.Mutex

	// lastUsed is the manager's dispatch tick at the session's last use,
	// for least-recently-used eviction. Guarded by manager.mu.
	lastUsed uint64

	// objMu guards objNames, the session's wire-protocol object registry:
	// remote clients address objects by chosen name, the kernel by id.
	objMu    sync.Mutex
	objNames map[string]int

	// logFrames counts the requests of this session's history that are in
	// its durable log — replayed from it, or appended to it by this
	// manager. Guarded by the log store's per-session locker. Resume
	// compares it with the log on disk to tell a current live copy from
	// one another process has outrun.
	logFrames int

	// dedupeMu guards the exactly-once cache: the ReqID and full
	// response of the session's most recent mutating wire request.
	// Wire-driven sessions are request-at-a-time, so one entry is
	// enough — a retry can only ever duplicate the last request (see
	// durability.go, serveRequest).
	dedupeMu  sync.Mutex
	lastReqID string
	lastResp  protocol.Response
}

// ID returns the session identifier.
func (s *Session) ID() string { return s.id }

// Kernel exposes the session's kernel for object creation and
// configuration. It bypasses the run lock: use it from the goroutine
// that drives the session, not concurrently with Apply/Perform.
func (s *Session) Kernel() *core.Kernel { return s.kernel }

// CreateColumnObject places one column of a cataloged table on the
// session's screen. The sample hierarchy's columns come from the shared
// store; only the trackers are session-private.
func (s *Session) CreateColumnObject(table, column string, frame touchos.Rect) (*core.Object, error) {
	m, err := s.kernel.Lookup(table)
	if err != nil {
		return nil, err
	}
	idx := m.ColumnIndex(column)
	if idx < 0 {
		return nil, fmt.Errorf("session %q: table %q has no column %q", s.id, table, column)
	}
	return s.kernel.CreateColumnObject(m, idx, frame)
}

// CreateTableObject places a whole cataloged table on the session's
// screen.
func (s *Session) CreateTableObject(table string, frame touchos.Rect) (*core.Object, error) {
	m, err := s.kernel.Lookup(table)
	if err != nil {
		return nil, err
	}
	return s.kernel.CreateTableObject(m, frame)
}

// touch refreshes the session's recently-used stamp for the manager's
// LRU cap, whatever path drove it (Dispatch, a wire request, or a facade
// handle's Apply).
func (s *Session) touch() {
	if s.manager == nil {
		return
	}
	s.manager.mu.Lock()
	s.manager.tick++
	s.lastUsed = s.manager.tick
	s.manager.mu.Unlock()
}

// Apply processes a touch-event batch on the caller's goroutine and
// returns the results it emitted: a copy, since the kernel reuses its
// result window for the next batch.
func (s *Session) Apply(events []touchos.TouchEvent) ([]core.Result, error) {
	if err := s.checkOpen(); err != nil {
		return nil, err
	}
	s.runMu.Lock()
	defer s.runMu.Unlock()
	return slices.Clone(s.kernel.Apply(events)), nil
}

// Idle advances the session's virtual time by d with no touch activity,
// giving background machinery (prefetch, layout conversion) the gap.
func (s *Session) Idle(d time.Duration) error {
	if err := s.checkOpen(); err != nil {
		return err
	}
	s.runMu.Lock()
	defer s.runMu.Unlock()
	from := s.kernel.Clock().Now()
	s.kernel.RunIdle(from, from+d)
	return nil
}

// Perform executes a serializable gesture description on the session's
// kernel: the wire-ready form of driving a session. Like Apply, it
// returns a copy of the results.
func (s *Session) Perform(g gesture.Gesture) ([]core.Result, error) {
	if err := s.checkOpen(); err != nil {
		return nil, err
	}
	s.runMu.Lock()
	defer s.runMu.Unlock()
	results, err := s.kernel.Perform(g)
	return slices.Clone(results), err
}

// Do runs fn with exclusive access to the session's kernel — the seam
// the protocol handler uses for object creation, configuration and
// promotion.
func (s *Session) Do(fn func(*core.Kernel) error) error {
	if err := s.checkOpen(); err != nil {
		return err
	}
	s.runMu.Lock()
	defer s.runMu.Unlock()
	return fn(s.kernel)
}

// Subscribe registers a bounded result stream on the session's kernel
// (buffer <= 0 selects the default size). The stream hands results
// across goroutines, so a monitor can cursor through them while another
// goroutine keeps driving the session; the registration itself is
// serialized against the running kernel.
func (s *Session) Subscribe(buffer int) *core.ResultStream {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	return s.kernel.Subscribe(buffer)
}

// BindObject names a kernel object for wire-protocol addressing. Later
// binds of the same name shadow earlier ones, mirroring script replay.
func (s *Session) BindObject(name string, id int) {
	s.objMu.Lock()
	defer s.objMu.Unlock()
	if s.objNames == nil {
		s.objNames = make(map[string]int)
	}
	s.objNames[name] = id
}

// BoundObject resolves a wire-protocol object name to its kernel id.
func (s *Session) BoundObject(name string) (int, bool) {
	s.objMu.Lock()
	defer s.objMu.Unlock()
	id, ok := s.objNames[name]
	return id, ok
}

// checkOpen rejects use after Close and refreshes the LRU stamp.
func (s *Session) checkOpen() error {
	s.touch()
	if s.closed.Load() {
		return fmt.Errorf("session %q: %w", s.id, ErrClosed)
	}
	return nil
}

// Close stops the session: it waits for the kernel execution in flight
// (if any), then closes every subscribed result stream (so consumers
// blocked in Next see end-of-stream instead of hanging on an evicted
// session) and the session is unusable. It is idempotent and safe to
// call from any goroutine; Manager.Evict calls it.
func (s *Session) Close() {
	s.closed.Store(true)
	s.runMu.Lock()
	defer s.runMu.Unlock()
	s.kernel.CloseSubscriptions()
	// Release live-table snapshot pins only now — under runMu — so an
	// eviction mid-batch cannot unpin the version the in-flight batch is
	// still reading, and the shared store's refcounts keep versions other
	// sessions pinned alive regardless (the eviction-race regression test
	// drives exactly this schedule).
	s.kernel.ReleaseLive()
}

// OnResult registers the session's live result callback. The callback
// runs on whichever goroutine is driving the session, so it must not
// share unsynchronized state across sessions.
func (s *Session) OnResult(fn func(core.Result)) { s.kernel.OnResult(fn) }
