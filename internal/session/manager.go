package session

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"dbtouch/internal/core"
	"dbtouch/internal/protocol"
	"dbtouch/internal/sample"
	"dbtouch/internal/storage"
	"dbtouch/internal/touchos"
)

// Manager owns the shared immutable storage layer — one catalog, one
// sample store — and the registry of live sessions. All methods are safe
// for concurrent use.
type Manager struct {
	cfg     core.Config
	catalog *storage.Catalog
	// live refcounts snapshot pins and caches versioned sample chains for
	// live tables, shared by every session's kernel.
	live *sample.LiveStore

	mu       sync.Mutex
	sessions map[string]*Session
	samples  map[sampleKey]*sampleEntry
	// tick stamps dispatches for least-recently-used eviction.
	tick uint64
	// maxSessions caps live sessions; 0 means unlimited.
	maxSessions int
	evictions   int64
	// admissionCap is a hard live-session ceiling: unlike maxSessions it
	// rejects Create with ErrOverloaded instead of evicting. 0 = none.
	admissionCap int

	// dur is the session-persistence state, nil until EnableDurability.
	// Behind an atomic pointer (not m.mu) because the tee path must
	// never call into the store while holding m.mu — the store's Protect
	// callback takes m.mu from under the store's own lock.
	dur atomic.Pointer[durability]
}

// sampleKey identifies one shared hierarchy: sample columns depend only
// on the base column identity and the requested depth.
type sampleKey struct {
	base   *storage.Column
	levels int
}

// sampleEntry single-flights construction of one shared hierarchy.
type sampleEntry struct {
	once   sync.Once
	shared *sample.Shared
	err    error
}

// NewManager builds a session manager whose sessions all run cfg
// (zero-valued fields inherit core.DefaultConfig, as in core.NewKernel).
func NewManager(cfg core.Config) *Manager {
	return &Manager{
		cfg:      cfg,
		catalog:  storage.NewCatalog(),
		live:     sample.NewLiveStore(),
		sessions: make(map[string]*Session),
		samples:  make(map[sampleKey]*sampleEntry),
	}
}

// SetAdmissionCap sets a hard ceiling on live sessions: Create past it
// fails with ErrOverloaded. Unlike SetMaxSessions (which silently
// evicts the least recently used session), the admission cap pushes
// back on the creator — the wire protocol turns it into HTTP 503 +
// Retry-After. 0 (the default) disables it.
func (m *Manager) SetAdmissionCap(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.admissionCap = n
}

// Catalog returns the shared catalog. Tables registered here are visible
// to every session.
func (m *Manager) Catalog() *storage.Catalog { return m.catalog }

// Append appends boxed rows to the named live table and returns the
// published snapshot — the row-wise twin of the wire's column-wise append
// (handleAppend). Appends need no session: snapshot publication
// synchronizes with every session's batch-start repin.
func (m *Manager) Append(table string, rows [][]storage.Value) (*storage.TableSnapshot, error) {
	t, err := m.liveTable(table)
	if err != nil {
		return nil, err
	}
	return t.AppendBatch(rows)
}

// liveTable resolves a live table for an append.
func (m *Manager) liveTable(name string) (*storage.Table, error) {
	t, ok := m.catalog.Live(name)
	if !ok {
		return nil, fmt.Errorf("session: no live table %q", name)
	}
	return t, nil
}

// SetMaxSessions caps the number of live sessions; creating one past the
// cap evicts the least recently dispatched. Zero (the default) disables
// the cap.
func (m *Manager) SetMaxSessions(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.maxSessions = n
}

// Stats snapshots the manager in its wire form — the admission signals
// (live sessions, eviction pressure), the live session ids sorted, and
// the durability counters an operator watches (all zero until
// EnableDurability). Sessions created or evicted concurrently may or may
// not appear.
func (m *Manager) Stats() protocol.StatsFrame {
	m.mu.Lock()
	st := protocol.StatsFrame{Live: len(m.sessions), Max: m.maxSessions, Evictions: m.evictions}
	for id := range m.sessions {
		st.Sessions = append(st.Sessions, protocol.SessionFrame{ID: id})
	}
	m.mu.Unlock()
	if d := m.durability(); d != nil {
		st.LoggedRequests = d.logged.Load()
		st.LogErrors = d.logErrs.Load()
		st.LogCompactions = d.store.Stats().Compactions
		st.Resumes = d.resumes.Load()
		st.ReplayedRequests = d.replayed.Load()
	}
	sort.Slice(st.Sessions, func(i, j int) bool { return st.Sessions[i].ID < st.Sessions[j].ID })
	return st
}

// sharedSamples is the core.SampleSource installed into every session's
// kernel: the first session to explore a column builds its sample
// hierarchy; later sessions (and concurrent racers) share it.
func (m *Manager) sharedSamples(base *storage.Column, levels int) (*sample.Shared, error) {
	key := sampleKey{base: base, levels: levels}
	m.mu.Lock()
	e, ok := m.samples[key]
	if !ok {
		e = &sampleEntry{}
		m.samples[key] = e
	}
	m.mu.Unlock()
	e.once.Do(func() {
		e.shared, e.err = sample.BuildShared(base, levels)
	})
	return e.shared, e.err
}

// Create registers a new session under id. The session's kernel shares
// the manager's catalog and sample store but owns its own virtual clock,
// screen, dispatcher and result log. Creating past the MaxSessions cap
// evicts the least recently dispatched session first; creating past the
// AdmissionCap is rejected with ErrOverloaded instead — no eviction, the
// caller backs off.
func (m *Manager) Create(id string) (*Session, error) {
	// Admission and duplicate checks come before kernel construction:
	// the rejection path is the hot one under a retry storm, and it must
	// not allocate a kernel just to discard it.
	m.mu.Lock()
	if err := m.admitLocked(id); err != nil {
		m.mu.Unlock()
		return nil, err
	}
	m.mu.Unlock()

	k := core.NewKernel(m.cfg)
	k.ShareStorage(m.catalog, m.sharedSamples)
	k.ShareLive(m.live)
	s := &Session{id: id, manager: m, kernel: k}

	m.mu.Lock()
	// Re-check: a racing Create may have taken the id or the last
	// admission slot while the kernel was being built.
	if err := m.admitLocked(id); err != nil {
		m.mu.Unlock()
		return nil, err
	}
	m.tick++
	s.lastUsed = m.tick
	m.sessions[id] = s
	var victim *Session
	if m.maxSessions > 0 && len(m.sessions) > m.maxSessions {
		victim = m.lruLocked(id)
		if victim != nil {
			delete(m.sessions, victim.id)
			m.evictions++
		}
	}
	m.mu.Unlock()

	if victim != nil {
		victim.Close()
		// LRU eviction only parks the victim's log (closing its cached
		// file handle); the session stays resumable via OpResume.
		m.parkLog(victim.id)
	}
	return s, nil
}

// admitLocked applies Create's rejection rules: duplicate id or the hard
// admission ceiling. Caller holds m.mu.
func (m *Manager) admitLocked(id string) error {
	if _, exists := m.sessions[id]; exists {
		return fmt.Errorf("session %q already exists", id)
	}
	if m.admissionCap > 0 && len(m.sessions) >= m.admissionCap {
		return fmt.Errorf("session %q: %w (%d live sessions at admission cap %d)",
			id, ErrOverloaded, len(m.sessions), m.admissionCap)
	}
	return nil
}

// lruLocked picks the least recently dispatched session other than keep.
// Caller holds m.mu.
func (m *Manager) lruLocked(keep string) *Session {
	var victim *Session
	for id, s := range m.sessions {
		if id == keep {
			continue
		}
		if victim == nil || s.lastUsed < victim.lastUsed {
			victim = s
		}
	}
	return victim
}

// Get resolves a session by id.
func (m *Manager) Get(id string) (*Session, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	return s, ok
}

// Len reports the number of live sessions.
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// Dispatch routes a touch-event batch to the session identified by id —
// the touchos event stream is demultiplexed here, one hop above each
// session's own dispatcher — and returns the results the batch emitted.
func (m *Manager) Dispatch(id string, events []touchos.TouchEvent) ([]core.Result, error) {
	s, ok := m.Get(id)
	if !ok {
		return nil, fmt.Errorf("session %q not found", id)
	}
	return s.Apply(events)
}

// Evict removes the session, waiting for the kernel execution in flight
// (if any) to finish. Shared storage (catalog, sample hierarchies) stays:
// it belongs to the manager, not the session. Reports whether the session
// existed.
func (m *Manager) Evict(id string) bool {
	m.mu.Lock()
	s, ok := m.sessions[id]
	delete(m.sessions, id)
	m.mu.Unlock()
	if !ok {
		return false
	}
	s.Close()
	m.parkLog(id)
	return true
}

// CloseStreams closes every live session's subscribed result streams
// without evicting the sessions: each close happens under the session's
// run lock, i.e. between kernel executions, so a consumer blocked in
// ResultStream.Next drains what was already emitted and then sees
// end-of-stream. It is the server-side stop for /stream handlers
// (dbtouch-serve registers it to run on shutdown); sessions stay usable
// and a later Subscribe opens a fresh stream.
func (m *Manager) CloseStreams() {
	m.mu.Lock()
	all := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		all = append(all, s)
	}
	m.mu.Unlock()
	for _, s := range all {
		s.runMu.Lock()
		s.kernel.CloseSubscriptions()
		s.runMu.Unlock()
	}
}

// Close evicts every session. The manager remains usable.
func (m *Manager) Close() {
	m.mu.Lock()
	all := m.sessions
	m.sessions = make(map[string]*Session)
	m.mu.Unlock()
	for _, s := range all {
		s.Close()
		// Every logged request is already on disk; parking just releases
		// the cached file handles. The store itself belongs to whoever
		// enabled durability and is closed there.
		m.parkLog(s.id)
	}
}
