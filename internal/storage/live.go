package storage

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ErrAppendLimited is returned by AppendRow/AppendBatch when the table's
// append rate limiter has no budget for the batch. Callers should back
// off and retry; the wire layer maps it to an overloaded response with
// Retry-After.
var ErrAppendLimited = errors.New("storage: append rate limit exceeded")

// Retention bounds how much history a live table keeps. Zero values mean
// unbounded. Retention trims from the front (oldest rows) only; it never
// touches the tail a writer is extending.
type Retention struct {
	// MaxRows caps the number of live rows. After an append pushes the
	// table past the cap, oldest rows become stale; physical reclamation
	// is amortized (see Table compaction), so the visible row count can
	// transiently exceed MaxRows by the compaction threshold.
	MaxRows int
	// MaxAge drops rows whose age column value is older than now-MaxAge.
	// Requires AgeColumn naming an INT column of Unix nanosecond
	// timestamps that is nondecreasing in row order.
	MaxAge time.Duration
	// AgeColumn names the timestamp column MaxAge reads.
	AgeColumn string
}

// TableSnapshot is one immutable published version of a live table.
// Matrix wraps capped prefix views of the table's columns: the appender
// only writes beyond the published lengths, so a snapshot never changes
// after publication. Epoch increases by one per publication; Gen
// increases when compaction rebases the backing arrays (row positions
// shift, so statistics keyed to positions must rebuild rather than
// extend).
type TableSnapshot struct {
	Epoch  uint64
	Gen    uint64
	Rows   int
	Matrix *Matrix
}

// Table is an appendable column set with snapshot versioning: writers
// append under a mutex and publish immutable TableSnapshots; readers pin
// a snapshot and explore it without any coordination with the writer.
// This is the "now is a version, not a constant" contract — exploration
// sessions see a consistent frozen prefix for a whole gesture batch even
// while ingestion keeps appending.
type Table struct {
	name   string
	schema []ColumnMeta

	mu     sync.Mutex
	cols   []*Column
	rows   int
	epoch  uint64
	gen    uint64
	ret    Retention
	ageIdx int
	// staleLo is how far the age-based stale scan has advanced, so each
	// append batch only examines newly expirable rows.
	staleLo int

	// Token-bucket append limiter (rows per second); nil when unlimited.
	lim *appendLimiter

	snap atomic.Pointer[TableSnapshot]
}

type appendLimiter struct {
	rate   float64 // tokens (rows) per second
	burst  float64
	tokens float64
	last   time.Time
}

// NewTable builds a live table over cols (adopted, not copied; all must
// have equal lengths) and publishes the initial snapshot as epoch 1.
// Zero-length columns are allowed: the table becomes explorable once
// rows arrive.
func NewTable(name string, cols ...*Column) (*Table, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("storage: live table %q needs at least one column", name)
	}
	rows := cols[0].Len()
	schema := make([]ColumnMeta, len(cols))
	for i, c := range cols {
		if c.Len() != rows {
			return nil, fmt.Errorf("storage: live table %q: column %q has %d rows, want %d", name, c.Name(), c.Len(), rows)
		}
		schema[i] = ColumnMeta{Name: c.Name(), Type: c.Type()}
	}
	t := &Table{name: name, schema: schema, cols: cols, rows: rows, ageIdx: -1}
	if err := t.publishLocked(); err != nil {
		return nil, err
	}
	return t, nil
}

// Name reports the table name.
func (t *Table) Name() string { return t.name }

// Snapshot returns the current published snapshot. The returned value is
// immutable and safe to read forever.
func (t *Table) Snapshot() *TableSnapshot { return t.snap.Load() }

// Rows reports the published row count.
func (t *Table) Rows() int { return t.Snapshot().Rows }

// Epoch reports the published epoch.
func (t *Table) Epoch() uint64 { return t.Snapshot().Epoch }

// Gen reports the published compaction generation.
func (t *Table) Gen() uint64 { return t.Snapshot().Gen }

// SetRetention installs a retention policy. An AgeColumn that does not
// name an INT column is an error.
func (t *Table) SetRetention(r Retention) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	ageIdx := -1
	if r.MaxAge > 0 {
		for i, m := range t.schema {
			if m.Name == r.AgeColumn {
				ageIdx = i
				break
			}
		}
		if ageIdx < 0 {
			return fmt.Errorf("storage: live table %q: retention age column %q not found", t.name, r.AgeColumn)
		}
		if t.schema[ageIdx].Type != Int64 {
			return fmt.Errorf("storage: live table %q: retention age column %q must be INT (unix nanos)", t.name, r.AgeColumn)
		}
	}
	t.ret = r
	t.ageIdx = ageIdx
	t.staleLo = 0
	return nil
}

// SetAppendLimit installs a token-bucket rate limit of rowsPerSec with
// the given burst (rows). rowsPerSec <= 0 removes the limit.
func (t *Table) SetAppendLimit(rowsPerSec float64, burst int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if rowsPerSec <= 0 {
		t.lim = nil
		return
	}
	if burst < 1 {
		burst = 1
	}
	t.lim = &appendLimiter{rate: rowsPerSec, burst: float64(burst), tokens: float64(burst), last: time.Now()}
}

func (l *appendLimiter) allow(n int, now time.Time) bool {
	l.tokens += now.Sub(l.last).Seconds() * l.rate
	l.last = now
	if l.tokens > l.burst {
		l.tokens = l.burst
	}
	if l.tokens < float64(n) {
		return false
	}
	l.tokens -= float64(n)
	return true
}

// AppendRow appends one row and publishes a new snapshot epoch.
func (t *Table) AppendRow(vals []Value) (*TableSnapshot, error) {
	return t.AppendBatch([][]Value{vals})
}

// AppendBatch appends rows atomically — a single snapshot epoch is
// published covering the whole batch, so readers never observe a partial
// batch — applies retention, and returns the new snapshot.
func (t *Table) AppendBatch(rows [][]Value) (*TableSnapshot, error) {
	return t.appendWith(len(rows), func() error {
		for _, r := range rows {
			if len(r) != len(t.cols) {
				return t.widthError(len(r))
			}
		}
		return nil
	}, func(c *Column, i int) { c.appendCells(rows, i) })
}

// AppendColumns is AppendBatch for a column-wise batch: the same checks,
// limit, retention and publication, and cells landing exactly as the same
// cells would as rows of Values.
func (t *Table) AppendColumns(b *Batch) (*TableSnapshot, error) {
	return t.appendWith(b.Len(), func() error {
		if w, bad := b.badWidth(len(t.cols)); bad {
			return t.widthError(w)
		}
		return nil
	}, func(c *Column, i int) { c.appendVector(&b.vecs[i]) })
}

func (t *Table) widthError(got int) error {
	return fmt.Errorf("storage: live table %q: row has %d values, want %d", t.name, got, len(t.cols))
}

// appendWith is the one append path: n rows, validated by check before
// anything is charged or touched, then fill(c, i) extends column i.
func (t *Table) appendWith(n int, check func() error, fill func(c *Column, i int)) (*TableSnapshot, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	// An empty batch is a no-op: no rows means no new epoch, which keeps
	// the epoch counter an exact function of the non-empty batches applied
	// (replay harnesses depend on that).
	if n == 0 {
		return t.snap.Load(), nil
	}
	// Validate before charging: a rejected batch must not spend the rate
	// budget the next legitimate one needs.
	if err := check(); err != nil {
		return nil, err
	}
	if t.lim != nil && !t.lim.allow(n, time.Now()) {
		return nil, ErrAppendLimited
	}
	for i, c := range t.cols {
		fill(c, i)
	}
	t.rows += n
	t.applyRetentionLocked()
	if err := t.publishLocked(); err != nil {
		return nil, err
	}
	return t.snap.Load(), nil
}

// compactMinStale is the smallest stale run worth a compaction.
const compactMinStale = 1024

// applyRetentionLocked computes how many head rows are stale under the
// policy and compacts once the stale run is large enough to amortize the
// copy. Compaction is the only reclamation mechanism: a logical head
// offset would misalign cost-model blocks and sample strides, so instead
// survivors are copied into fresh arrays and the generation is bumped,
// telling readers their position-keyed state (sample levels, block
// memos) must rebuild.
func (t *Table) applyRetentionLocked() {
	stale := 0
	if t.ret.MaxRows > 0 && t.rows > t.ret.MaxRows {
		stale = t.rows - t.ret.MaxRows
	}
	if t.ret.MaxAge > 0 && t.ageIdx >= 0 {
		cutoff := time.Now().Add(-t.ret.MaxAge).UnixNano()
		ts := t.cols[t.ageIdx].Ints()
		// Timestamps are nondecreasing, so resume the scan where it left
		// off; each row is examined at most once over the table lifetime.
		for t.staleLo < t.rows && ts[t.staleLo] < cutoff {
			t.staleLo++
		}
		if t.staleLo > stale {
			stale = t.staleLo
		}
	}
	// Never drop the last row: pinned readers rebind against a non-empty
	// table, and an all-stale table just keeps its newest row until the
	// next append displaces it.
	if stale > t.rows-1 {
		stale = t.rows - 1
	}
	if stale < compactMinStale || stale < t.rows-stale {
		return
	}
	live := t.rows - stale
	// Size the fresh arrays for the whole cycle they will serve. When the
	// row cap set the stale count, live is MaxRows and the next compaction
	// fires at exactly live + max(compactMinStale, live) rows: reserving
	// that much means no append regrows (and re-copies) the arrays in
	// between, and nothing is reserved the table will not reach. An
	// age-bound table cannot say when its next compaction comes, so it
	// takes the survivors' size and grows by append's policy.
	capacity := live
	if live == t.ret.MaxRows {
		capacity = live + max(compactMinStale, live)
	}
	fresh := make([]*Column, len(t.cols))
	for i, c := range t.cols {
		fresh[i] = c.tail(stale, capacity)
	}
	t.cols = fresh
	t.rows = live
	t.staleLo = 0
	t.gen++
}

// publishLocked freezes the current prefix into a new snapshot epoch.
func (t *Table) publishLocked() error {
	views := make([]*Column, len(t.cols))
	for i, c := range t.cols {
		v, err := c.Prefix(t.rows)
		if err != nil {
			return err
		}
		views[i] = v
	}
	m, err := NewMatrix(t.name, views...)
	if err != nil {
		return err
	}
	t.epoch++
	snap := &TableSnapshot{Epoch: t.epoch, Gen: t.gen, Rows: t.rows, Matrix: m}
	t.snap.Store(snap)
	return nil
}
