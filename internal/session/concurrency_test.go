package session

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"dbtouch/internal/core"
	"dbtouch/internal/gesture"
	"dbtouch/internal/touchos"
)

// This file pins the session layer's concurrency model: admission control
// (past the cap, Create returns ErrOverloaded instead of evicting),
// boundedness (sessions hold no goroutines, however many exist), and
// per-session serialization (concurrent callers of one session run one at
// a time under the run lock, never interleaved).

// tapAt synthesizes one tap batch on the standard object frame at the
// given virtual time.
func tapAt(at time.Duration) []touchos.TouchEvent {
	var synth gesture.Synth
	return synth.Tap(touchos.Point{X: 3, Y: 5}, at)
}

// TestCreateAdmissionCap: the hard live-session ceiling rejects Create
// with ErrOverloaded (no silent LRU eviction), and admits again after
// an eviction frees a slot.
func TestCreateAdmissionCap(t *testing.T) {
	m := testManager(t, 10_000)
	defer m.Close()
	m.SetAdmissionCap(2)
	if _, err := m.Create("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("b"); err != nil {
		t.Fatal(err)
	}
	_, err := m.Create("c")
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("create past admission cap: err = %v, want ErrOverloaded", err)
	}
	if m.Len() != 2 {
		t.Fatalf("admission cap evicted: %d live, want 2", m.Len())
	}
	m.Evict("a")
	if _, err := m.Create("c"); err != nil {
		t.Fatalf("create after eviction: %v", err)
	}
}

// createIdle registers n sessions that are never driven.
func createIdle(t testing.TB, m *Manager, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := m.Create(fmt.Sprintf("idle%d", i)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestIdleSessionsHoldNoGoroutines: 10k created sessions add zero
// goroutines, before and after one of their neighbours works.
func TestIdleSessionsHoldNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	m := testManager(t, 50_000)
	defer m.Close()
	const idle = 10_000
	createIdle(t, m, idle)
	active := newColumnSession(t, m, "active")
	if _, err := active.Apply(slideEvents(active, time.Second)); err != nil {
		t.Fatal(err)
	}
	if len(active.Results()) == 0 {
		t.Fatal("active session produced no results")
	}
	if g := runtime.NumGoroutine(); g > base {
		t.Fatalf("%d goroutines for %d idle sessions, want the baseline %d", g, idle, base)
	}
	if st := m.Stats(); st.Live != idle+1 {
		t.Fatalf("stats: live=%d, want %d", st.Live, idle+1)
	}
}

// TestConcurrentPerformsOnOneSessionSerialize is the run lock's own test:
// two goroutines driving the same session at once must produce a result
// stream equal to one of the two serial orders — batches stay atomic and
// never interleave. Without runMu the kernel's clock, dispatcher and
// result log race (and -race says so).
func TestConcurrentPerformsOnOneSessionSerialize(t *testing.T) {
	// Both batches carry the same virtual timestamps; whichever runs
	// second is clamped behind the first by the session's own clock, so
	// the two serial orders give distinguishable streams.
	tap, slide := tapAt(0), livePinSlide(0)
	run := func(drive func(s *Session)) []core.Result {
		m := testManager(t, 50_000)
		defer m.Close()
		s := newColumnSession(t, m, "shared")
		var stream []core.Result
		s.OnResult(func(r core.Result) { stream = append(stream, r) })
		drive(s)
		return stream
	}
	apply := func(s *Session, batch []touchos.TouchEvent) {
		if _, err := s.Apply(batch); err != nil {
			t.Error(err)
		}
	}
	tapFirst := run(func(s *Session) { apply(s, tap); apply(s, slide) })
	slideFirst := run(func(s *Session) { apply(s, slide); apply(s, tap) })
	if len(tapFirst) == 0 || reflect.DeepEqual(tapFirst, slideFirst) {
		t.Fatalf("serial orders are indistinguishable (%d results); the test would prove nothing", len(tapFirst))
	}
	for i := 0; i < 20; i++ {
		got := run(func(s *Session) {
			var wg sync.WaitGroup
			for _, batch := range [][]touchos.TouchEvent{tap, slide} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					apply(s, batch)
				}()
			}
			wg.Wait()
		})
		if !reflect.DeepEqual(got, tapFirst) && !reflect.DeepEqual(got, slideFirst) {
			t.Fatalf("round %d: concurrent stream (%d results) matches neither serial order (%d / %d results)",
				i, len(got), len(tapFirst), len(slideFirst))
		}
	}
}

// BenchmarkIdleSessions: 10k registered, idle sessions plus 8 active
// ones, each active session driven from its own goroutine. The
// goroutines metric stays at the baseline — not O(sessions) — and
// touches/wallsec for the active few stays flat because idle sessions
// are never visited.
func BenchmarkIdleSessions(b *testing.B) {
	const idle = 10_000
	const active = 8
	m := testManager(b, 100_000)
	defer m.Close()
	createIdle(b, m, idle)
	acts := make([]*Session, active)
	for i := range acts {
		acts[i] = newColumnSession(b, m, fmt.Sprintf("active%d", i))
	}
	start := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for _, s := range acts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := s.Apply(slideEvents(s, time.Second)); err != nil {
					b.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	b.StopTimer()
	b.ReportMetric(float64(runtime.NumGoroutine()), "goroutines")
	var touches int64
	for _, s := range acts {
		touches += s.Kernel().Counters().Get("touch.handled")
	}
	if wall := time.Since(start).Seconds(); wall > 0 {
		b.ReportMetric(float64(touches)/wall, "touches/wallsec")
	}
	if g := runtime.NumGoroutine(); g > idle/10 {
		b.Fatalf("goroutine count %d is O(sessions)", g)
	}
}
