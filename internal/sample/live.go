package sample

import (
	"sort"
	"sync"
	"sync/atomic"

	"dbtouch/internal/storage"
)

// chainKey identifies one versioned sample chain within a table: the
// column index plus the hierarchy depth. Sessions with the same depth
// share one chain.
type chainKey struct {
	col    int
	levels int
}

// liveEntry is the per-table state of a LiveStore: the versioned chains
// and the refcounted pins holding versions alive.
type liveEntry struct {
	chains map[chainKey]*Versioned
	// pins refcounts readers per pinned epoch. A version stays cached in
	// the chains while any pin references it; Release prunes the caches
	// down to the still-pinned versions plus the current snapshot.
	pins map[uint64]*pinRef
}

type pinRef struct {
	refs int
	snap *storage.TableSnapshot
}

// LiveStore tracks snapshot pins and versioned sample chains for live
// tables — the shared, cross-session half of live ingestion. Kernels pin
// a snapshot per gesture batch; the store refcounts pinned versions so
// an LRU-evicted session releasing its pin can never invalidate a
// version a concurrent session still reads (the refcount, not session
// lifetime, decides when a cached version is pruned).
type LiveStore struct {
	mu     sync.Mutex
	tables map[*storage.Table]*liveEntry
}

// NewLiveStore returns an empty store.
func NewLiveStore() *LiveStore {
	return &LiveStore{tables: make(map[*storage.Table]*liveEntry)}
}

func (ls *LiveStore) entryLocked(t *storage.Table) *liveEntry {
	e, ok := ls.tables[t]
	if !ok {
		e = &liveEntry{chains: make(map[chainKey]*Versioned), pins: make(map[uint64]*pinRef)}
		ls.tables[t] = e
	}
	return e
}

// Pin takes a reference on t's current snapshot and returns the handle a
// reader uses for the whole gesture batch. Concurrent pinners of the
// same epoch share one refcounted snapshot.
func (ls *LiveStore) Pin(t *storage.Table) *Pinned {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	e := ls.entryLocked(t)
	snap := t.Snapshot()
	pr, ok := e.pins[snap.Epoch]
	if !ok {
		pr = &pinRef{snap: snap}
		e.pins[snap.Epoch] = pr
	}
	pr.refs++
	return &Pinned{store: ls, table: t, Snap: pr.snap}
}

// Pinned is one reader's reference to one published table version.
// Release is idempotent: double-release (e.g. eviction racing a normal
// batch-end release) decrements the shared refcount exactly once.
type Pinned struct {
	store    *LiveStore
	table    *storage.Table
	Snap     *storage.TableSnapshot
	released atomic.Bool
}

// Samples returns the Shared sample hierarchy for column col of the
// pinned version, built or extended incrementally by the table's
// versioned chain.
func (p *Pinned) Samples(col, levels int) (*Shared, error) {
	ls := p.store
	ls.mu.Lock()
	e := ls.entryLocked(p.table)
	key := chainKey{col: col, levels: levels}
	chain, ok := e.chains[key]
	if !ok {
		chain = NewVersioned(levels, 0)
		e.chains[key] = chain
	}
	ls.mu.Unlock()
	base, err := p.Snap.Matrix.Column(col)
	if err != nil {
		return nil, err
	}
	return chain.ForSnapshot(p.Snap.Gen, base)
}

// Release drops the pin's reference and prunes chain caches down to the
// versions still pinned by someone plus the table's current snapshot.
func (p *Pinned) Release() {
	if !p.released.CompareAndSwap(false, true) {
		return
	}
	ls := p.store
	ls.mu.Lock()
	e := ls.tables[p.table]
	if e == nil {
		ls.mu.Unlock()
		return
	}
	if pr, ok := e.pins[p.Snap.Epoch]; ok {
		pr.refs--
		if pr.refs <= 0 {
			delete(e.pins, p.Snap.Epoch)
		}
	}
	keep := make(map[verKey]bool, len(e.pins)+1)
	for _, pr := range e.pins {
		keep[verKey{gen: pr.snap.Gen, rows: pr.snap.Rows}] = true
	}
	cur := p.table.Snapshot()
	keep[verKey{gen: cur.Gen, rows: cur.Rows}] = true
	chains := make([]*Versioned, 0, len(e.chains))
	for _, c := range e.chains {
		chains = append(chains, c)
	}
	ls.mu.Unlock()
	for _, c := range chains {
		c.prune(keep)
	}
}

// PinnedEpochs reports the epochs currently pinned on t, sorted — test
// and ops visibility into the pin lifecycle.
func (ls *LiveStore) PinnedEpochs(t *storage.Table) []uint64 {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	e := ls.tables[t]
	if e == nil {
		return nil
	}
	out := make([]uint64, 0, len(e.pins))
	for ep := range e.pins {
		out = append(out, ep)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// LiveStats summarizes the store for tests and operations: everything
// here must stay bounded in a long-running live session.
type LiveStats struct {
	Tables         int
	Pins           int
	Chains         int
	CachedVersions int
}

// Stats reports current store totals.
func (ls *LiveStore) Stats() LiveStats {
	ls.mu.Lock()
	var st LiveStats
	st.Tables = len(ls.tables)
	chains := make([]*Versioned, 0)
	for _, e := range ls.tables {
		for _, pr := range e.pins {
			st.Pins += pr.refs
		}
		st.Chains += len(e.chains)
		for _, c := range e.chains {
			chains = append(chains, c)
		}
	}
	ls.mu.Unlock()
	for _, c := range chains {
		st.CachedVersions += c.cachedVersions()
	}
	return st
}
