package session

import (
	"dbtouch/internal/core"
	"dbtouch/internal/sample"
)

// LiveStore returns the shared live-table snapshot store (pin refcounts
// and versioned sample chains).
func (m *Manager) LiveStore() *sample.LiveStore { return m.live }

// Evictions reports how many sessions the cap has evicted.
func (m *Manager) Evictions() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.evictions
}

// Results returns the session's retained results (the kernel's bounded,
// fade-pruned window), valid until the session's next batch. Read it
// from the goroutine that drives the session, or after that goroutine
// has been joined.
func (s *Session) Results() []core.Result { return s.kernel.Results() }
