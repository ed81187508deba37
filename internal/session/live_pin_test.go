package session

import (
	"sync"
	"testing"
	"time"

	"dbtouch/internal/core"
	"dbtouch/internal/gesture"
	"dbtouch/internal/storage"
	"dbtouch/internal/touchos"
)

// Regression for the snapshot-pinning race at session eviction: an
// LRU-evicted session that is mid-batch must hold its pinned snapshot
// until the batch drains, and must release it exactly once afterwards —
// never while another session still depends on the pin machinery, and
// never leak it. The schedule is deterministic: a blocking OnResult gate
// holds session one inside a batch while the table advances an epoch and
// session two pins the new version.

func livePinSlide(start time.Duration) []touchos.TouchEvent {
	var synth gesture.Synth
	x := equivFrame.Origin.X + equivFrame.Size.W/2
	return synth.Slide(
		touchos.Point{X: x, Y: equivFrame.Origin.Y + 0.1},
		touchos.Point{X: x, Y: equivFrame.Origin.Y + equivFrame.Size.H - 0.1},
		start, 500*time.Millisecond,
	)
}

func TestEvictedSessionReleasesPinAfterDrain(t *testing.T) {
	m := NewManager(core.DefaultConfig())
	vals := make([]int64, 4096)
	for i := range vals {
		vals[i] = int64(i % 500)
	}
	tb, err := storage.NewTable("events", storage.NewIntColumn("v", vals))
	if err != nil {
		t.Fatal(err)
	}
	m.Catalog().RegisterLive(tb)

	mkSession := func(id string) *Session {
		s, err := m.Create(id)
		if err != nil {
			t.Fatal(err)
		}
		obj, err := s.CreateColumnObject("events", "v", equivFrame)
		if err != nil {
			t.Fatal(err)
		}
		obj.SetActions(core.Actions{Mode: core.ModeScan})
		return s
	}
	s1 := mkSession("s1")
	s2 := mkSession("s2")

	// Gate: s1's first result parks its driver goroutine inside the batch,
	// with the epoch-1 pin held.
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s1.OnResult(func(r core.Result) {
		once.Do(func() {
			close(entered)
			<-release
		})
	})

	s1Done := make(chan error, 1)
	go func() {
		_, err := m.Dispatch("s1", livePinSlide(0))
		s1Done <- err
	}()
	<-entered

	// The table moves on while s1 is parked: epoch 2 publishes, and s2
	// pins it with a batch of its own.
	if _, err := m.Append("events", [][]storage.Value{{storage.IntValue(7)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Dispatch("s2", livePinSlide(0)); err != nil {
		t.Fatal(err)
	}

	pinned := m.LiveStore().PinnedEpochs(tb)
	if !containsEpoch(pinned, 1) || !containsEpoch(pinned, 2) {
		t.Fatalf("mid-batch pins = %v, want both epochs 1 and 2", pinned)
	}

	// Evict s1 while it is parked mid-batch. Eviction must block on the
	// run lock, keeping the pin alive until the batch completes — releasing
	// early would let version pruning run while s1's statistics views are
	// still in use.
	evicted := make(chan bool, 1)
	go func() { evicted <- m.Evict("s1") }()
	time.Sleep(20 * time.Millisecond)
	select {
	case <-evicted:
		t.Fatal("eviction completed while the session was mid-batch")
	default:
	}
	if pinned := m.LiveStore().PinnedEpochs(tb); !containsEpoch(pinned, 1) {
		t.Fatalf("pin released mid-batch: %v", pinned)
	}

	close(release)
	if err := <-s1Done; err != nil {
		t.Fatalf("s1's in-flight batch: %v", err)
	}
	if ok := <-evicted; !ok {
		t.Fatal("Evict reported the session missing")
	}
	pinned = m.LiveStore().PinnedEpochs(tb)
	if containsEpoch(pinned, 1) {
		t.Fatalf("evicted session leaked its pin: %v", pinned)
	}
	if !containsEpoch(pinned, 2) {
		t.Fatalf("s2's pin vanished with s1's eviction: %v", pinned)
	}

	// The surviving session keeps working: another batch repins the
	// current epoch and produces results.
	var got int
	s2.OnResult(func(r core.Result) { got++ })
	if _, err := m.Dispatch("s2", livePinSlide(3*time.Second)); err != nil {
		t.Fatal(err)
	}
	if got == 0 {
		t.Fatal("survivor session produced no results after eviction")
	}

	// Idempotence: the session is gone from the manager, and closing it
	// again is a no-op rather than a double release.
	if m.Evict("s1") {
		t.Fatal("second eviction found the session")
	}
	s1.Close()
	m.Close()
}

func containsEpoch(eps []uint64, e uint64) bool {
	for _, x := range eps {
		if x == e {
			return true
		}
	}
	return false
}
