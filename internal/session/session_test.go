package session

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"dbtouch/internal/core"
	"dbtouch/internal/gesture"
	"dbtouch/internal/storage"
	"dbtouch/internal/touchos"
)

// testManager builds a manager with a registered int table of n rows.
func testManager(t testing.TB, n int) *Manager {
	t.Helper()
	m := NewManager(core.DefaultConfig())
	data := make([]int64, n)
	for i := range data {
		data[i] = int64(i % 997)
	}
	mx, err := storage.NewMatrix("t", storage.NewIntColumn("v", data))
	if err != nil {
		t.Fatal(err)
	}
	m.Catalog().Register(mx)
	return m
}

// slideEvents synthesizes a top-to-bottom slide over the standard object
// frame, starting at the session's current virtual time.
func slideEvents(s *Session, dur time.Duration) []touchos.TouchEvent {
	start := s.Kernel().Clock().Now()
	var synth gesture.Synth
	return synth.Slide(
		touchos.Point{X: 3, Y: 2.02},
		touchos.Point{X: 3, Y: 11.98},
		start, dur,
	)
}

func newColumnSession(t testing.TB, m *Manager, id string) *Session {
	t.Helper()
	s, err := m.Create(id)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateColumnObject("t", "v", touchos.NewRect(2, 2, 2, 10)); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestManagerCreateGetEvict(t *testing.T) {
	m := testManager(t, 10_000)
	s, err := m.Create("alice")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("alice"); err == nil {
		t.Fatal("duplicate Create succeeded")
	}
	got, ok := m.Get("alice")
	if !ok || got != s {
		t.Fatal("Get did not return the created session")
	}
	if m.Len() != 1 {
		t.Fatalf("Len() = %d, want 1", m.Len())
	}
	if !m.Evict("alice") {
		t.Fatal("Evict reported missing session")
	}
	if m.Evict("alice") {
		t.Fatal("second Evict reported success")
	}
	if _, ok := m.Get("alice"); ok {
		t.Fatal("evicted session still resolvable")
	}
	if _, err := s.Apply(nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Apply on an evicted session: err = %v, want ErrClosed", err)
	}
}

func TestDispatchRoutesToSession(t *testing.T) {
	m := testManager(t, 50_000)
	a := newColumnSession(t, m, "a")
	b := newColumnSession(t, m, "b")

	resA, err := m.Dispatch("a", slideEvents(a, time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if len(resA) == 0 {
		t.Fatal("session a produced no results")
	}
	if len(b.Results()) != 0 {
		t.Fatal("dispatch to a leaked results into b")
	}
	if _, err := m.Dispatch("nobody", nil); err == nil {
		t.Fatal("dispatch to unknown session succeeded")
	}
	// Virtual clocks are independent: b never advanced.
	if b.Kernel().Clock().Now() != 0 {
		t.Fatalf("session b clock = %v, want 0", b.Kernel().Clock().Now())
	}
	if a.Kernel().Clock().Now() == 0 {
		t.Fatal("session a clock did not advance")
	}
}

func TestSharedSamplesBuiltOnce(t *testing.T) {
	m := testManager(t, 100_000)
	a := newColumnSession(t, m, "a")
	b := newColumnSession(t, m, "b")
	ha := a.Kernel().Objects()[0].Hierarchy()
	hb := b.Kernel().Objects()[0].Hierarchy()
	if ha.Shared() != hb.Shared() {
		t.Fatal("sessions built separate sample hierarchies over the same column")
	}
	if ha == hb {
		t.Fatal("sessions share per-session hierarchy state")
	}
	l0a, _ := ha.Level(1)
	l0b, _ := hb.Level(1)
	if l0a.Col != l0b.Col {
		t.Fatal("sample level columns not shared")
	}
	if l0a.Tracker == l0b.Tracker {
		t.Fatal("trackers shared across sessions")
	}
}

func TestMaxSessionsEvictsLRU(t *testing.T) {
	m := testManager(t, 10_000)
	m.SetMaxSessions(2)
	a := newColumnSession(t, m, "a")
	newColumnSession(t, m, "b")
	// Touch a so b becomes least recently used.
	if _, err := m.Dispatch("a", slideEvents(a, 200*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	newColumnSession(t, m, "c")
	if m.Len() != 2 {
		t.Fatalf("Len() = %d after cap eviction, want 2", m.Len())
	}
	if _, ok := m.Get("b"); ok {
		t.Fatal("LRU session b survived the cap")
	}
	if _, ok := m.Get("a"); !ok {
		t.Fatal("recently used session a was evicted")
	}
	if m.Evictions() != 1 {
		t.Fatalf("Evictions() = %d, want 1", m.Evictions())
	}
}

// TestEvictionPruningNoLeak is the bounded-retention audit for the
// session layer: a long-running session's retained result log must stay
// bounded by the fade horizon (not session length), sessions must pin no
// goroutines of their own, and the manager must drop its reference on
// eviction so the session is collectable.
func TestEvictionPruningNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	m := testManager(t, 200_000)
	s := newColumnSession(t, m, "long")

	// A long session: many gestures, each followed by an idle gap larger
	// than the fade horizon, so earlier results are prunable each batch.
	const gestures = 60
	maxRetained := 0
	for i := 0; i < gestures; i++ {
		if _, err := s.Apply(slideEvents(s, 500*time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		if n := len(s.Results()); n > maxRetained {
			maxRetained = n
		}
		// Lift the finger past the fade horizon.
		now := s.Kernel().Clock().Now()
		s.Kernel().RunIdle(now, now+2*core.FadeAfter)
	}
	total := s.Kernel().Counters().Get("results.emitted")
	if total == 0 {
		t.Fatal("no results emitted")
	}
	// The retained window must be a per-gesture quantity, not ~total.
	if int64(maxRetained) >= total {
		t.Fatalf("retention unbounded: max retained %d of %d emitted", maxRetained, total)
	}
	perGesture := int(total) / gestures
	if maxRetained > 3*perGesture {
		t.Fatalf("retained window %d exceeds 3x per-gesture volume %d", maxRetained, perGesture)
	}

	if !m.Evict("long") {
		t.Fatal("Evict failed")
	}
	if m.Len() != 0 {
		t.Fatalf("manager still holds %d sessions", m.Len())
	}
	m.Close()
	if g := runtime.NumGoroutine(); g > base {
		t.Fatalf("goroutines leaked by the session layer: %d > baseline %d", g, base)
	}
}

// TestConcurrentSessionsRace drives many sessions at once, one goroutine
// each, purely for the race detector: shared catalog reads, single-flight
// sample level copies, and independent clocks.
func TestConcurrentSessionsRace(t *testing.T) {
	m := testManager(t, 100_000)
	const n = 8
	sessions := make([]*Session, n)
	for i := 0; i < n; i++ {
		sessions[i] = newColumnSession(t, m, string(rune('a'+i)))
	}
	var wg sync.WaitGroup
	for _, s := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				if _, err := s.Apply(slideEvents(s, time.Second)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, s := range sessions {
		if len(s.Results()) == 0 {
			t.Fatalf("session %s produced no results", s.ID())
		}
	}
	m.Close()
}

// TestDerivedTablesStaySessionPrivate: hot-region promotions (and other
// session-derived tables) must not leak into the shared catalog, must not
// pin entries in the manager's shared sample store, and must stay
// resolvable within their own session.
func TestDerivedTablesStaySessionPrivate(t *testing.T) {
	m := testManager(t, 100_000)
	a := newColumnSession(t, m, "a")
	newColumnSession(t, m, "b")

	// Revisit one region so it becomes hot, then promote it.
	var synth gesture.Synth
	objA := a.Kernel().Objects()[0]
	events := synth.BackAndForth(
		touchos.Point{X: 3, Y: 5}, touchos.Point{X: 3, Y: 7},
		a.Kernel().Clock().Now(), 500*time.Millisecond, 4,
	)
	if _, err := a.Apply(events); err != nil {
		t.Fatal(err)
	}
	promoted, err := a.Kernel().PromoteHotRegion(objA, touchos.NewRect(8, 2, 2, 6))
	if err != nil {
		t.Fatal(err)
	}
	name := promoted.Matrix().Name()

	if got := m.Catalog().List(); len(got) != 1 || got[0] != "t" {
		t.Fatalf("shared catalog polluted by derived table: %v", got)
	}
	if _, err := a.Kernel().Lookup(name); err != nil {
		t.Fatalf("promoting session cannot resolve its own table: %v", err)
	}
	bSess, _ := m.Get("b")
	if _, err := bSess.Kernel().Lookup(name); err == nil {
		t.Fatal("derived table visible to another session")
	}
	m.mu.Lock()
	nSamples := len(m.samples)
	m.mu.Unlock()
	if nSamples != 1 {
		t.Fatalf("shared sample store has %d entries, want 1 (derived tables must build privately)", nSamples)
	}
}
