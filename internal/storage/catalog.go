package storage

import (
	"fmt"
	"sort"
	"sync"
)

// Catalog is the schema-lite registry of matrixes. dbTouch deliberately
// exposes only "what objects exist" (paper §2.2 "Schema-less Querying");
// detailed schema discovery happens through exploration gestures.
type Catalog struct {
	mu       sync.RWMutex
	matrixes map[string]*Matrix
	lives    map[string]*Table
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{matrixes: make(map[string]*Matrix), lives: make(map[string]*Table)}
}

// Register adds m under its name, replacing any previous entry with the
// same name (including a live table of that name — the two registries
// share one namespace).
func (c *Catalog) Register(m *Matrix) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.matrixes[m.Name()] = m
	delete(c.lives, m.Name())
}

// RegisterLive adds a live table under its name, replacing any previous
// frozen or live entry with the same name.
func (c *Catalog) RegisterLive(t *Table) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lives[t.Name()] = t
	delete(c.matrixes, t.Name())
}

// Live resolves a live table by name (nil, false when the name is absent
// or frozen).
func (c *Catalog) Live(name string) (*Table, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.lives[name]
	return t, ok
}

// IsLive reports whether name is registered as a live table.
func (c *Catalog) IsLive(name string) bool {
	_, ok := c.Live(name)
	return ok
}

// LiveTables lists the registered live tables in name order — the
// iteration surface for telemetry that aggregates append/retention
// counters across every table.
func (c *Catalog) LiveTables() []*Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.lives))
	for name := range c.lives {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*Table, 0, len(names))
	for _, name := range names {
		out = append(out, c.lives[name])
	}
	return out
}

// Get resolves a matrix by name. For a live table this returns the
// current snapshot's matrix — an immutable version, not a handle that
// follows appends; callers that must track epochs resolve via Live.
func (c *Catalog) Get(name string) (*Matrix, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if m, ok := c.matrixes[name]; ok {
		return m, nil
	}
	if t, ok := c.lives[name]; ok {
		return t.Snapshot().Matrix, nil
	}
	return nil, fmt.Errorf("storage: no matrix named %q", name)
}

// List returns the registered names (frozen and live) in sorted order.
func (c *Catalog) List() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.matrixes)+len(c.lives))
	for name := range c.matrixes {
		names = append(names, name)
	}
	for name := range c.lives {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
