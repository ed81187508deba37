package session_test

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"dbtouch/internal/core"
	"dbtouch/internal/gesture"
	"dbtouch/internal/session"
	"dbtouch/internal/storage"
	"dbtouch/internal/touchos"
)

// sensorTable builds a small deterministic table shared by the examples.
func sensorTable() *storage.Matrix {
	data := make([]int64, 20_000)
	for i := range data {
		data[i] = int64(i % 100)
	}
	m, err := storage.NewMatrix("readings", storage.NewIntColumn("temp", data))
	if err != nil {
		panic(err)
	}
	return m
}

// slide synthesizes a 1-second top-to-bottom slide over the example
// object frame, starting at the session's current virtual time.
func slide(s *session.Session) []touchos.TouchEvent {
	var synth gesture.Synth
	start := s.Kernel().Clock().Now()
	return synth.Slide(
		touchos.Point{X: 3, Y: 2.02},
		touchos.Point{X: 3, Y: 11.98},
		start, time.Second,
	)
}

// ExampleManager shows the multi-user shape: one manager owns the shared
// immutable storage (catalog + sample hierarchies); each user gets a
// session with its own virtual clock and result stream, and sessions run
// concurrently when driven from separate goroutines — an idle session
// holds no goroutine of its own.
func ExampleManager() {
	mgr := session.NewManager(core.DefaultConfig())
	mgr.Catalog().Register(sensorTable())

	users := []string{"alice", "bob"}
	for _, user := range users {
		s, err := mgr.Create(user)
		if err != nil {
			panic(err)
		}
		if _, err := s.CreateColumnObject("readings", "temp", touchos.NewRect(2, 2, 2, 10)); err != nil {
			panic(err)
		}
	}

	// One goroutine per user routes a gesture to that user's session.
	var wg sync.WaitGroup
	for _, user := range users {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, _ := mgr.Get(user)
			if _, err := mgr.Dispatch(user, slide(s)); err != nil {
				panic(err)
			}
		}()
	}
	wg.Wait() // synchronize before reading results
	for _, user := range users {
		s, _ := mgr.Get(user)
		fmt.Printf("%s: %d summaries in %v of virtual session time\n",
			user, len(s.Results()), s.Kernel().Clock().Now().Round(time.Millisecond))
	}
	mgr.Close()
	// Output:
	// alice: 16 summaries in 1.138s of virtual session time
	// bob: 16 summaries in 1.138s of virtual session time
}

// ExampleSession shows the driving contract: a batch runs on the caller's
// goroutine and returns its results directly.
func ExampleSession() {
	mgr := session.NewManager(core.DefaultConfig())
	mgr.Catalog().Register(sensorTable())

	s, err := mgr.Create("solo")
	if err != nil {
		panic(err)
	}
	obj, err := s.CreateColumnObject("readings", "temp", touchos.NewRect(2, 2, 2, 10))
	if err != nil {
		panic(err)
	}
	a := obj.Actions()
	a.Mode = core.ModeAggregate
	obj.SetActions(a)

	results, err := s.Apply(slide(s))
	if err != nil {
		panic(err)
	}
	last := results[len(results)-1]
	fmt.Printf("running aggregate absorbed %d sample entries\n", last.N)
	mgr.Evict("solo")
	// Output:
	// running aggregate absorbed 82 sample entries
}

// ExampleManager_workers bounds kernel concurrency the plain Go way: the
// manager has no pool of its own, so a caller that wants at most two
// gestures executing at once runs two worker goroutines over a channel
// of users. Sessions hold no goroutine, so two workers serve four users
// here and would serve ten thousand.
func ExampleManager_workers() {
	mgr := session.NewManager(core.DefaultConfig())
	mgr.Catalog().Register(sensorTable())

	users := []string{"alice", "bob", "carol", "dave"}
	for _, user := range users {
		s, err := mgr.Create(user)
		if err != nil {
			panic(err)
		}
		if _, err := s.CreateColumnObject("readings", "temp", touchos.NewRect(2, 2, 2, 10)); err != nil {
			panic(err)
		}
	}
	const workers = 2
	work := make(chan string)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for user := range work {
				s, _ := mgr.Get(user)
				if _, err := s.Apply(slide(s)); err != nil {
					panic(err)
				}
			}
		}()
	}
	for _, user := range users {
		work <- user
	}
	close(work)
	wg.Wait()
	fmt.Printf("%d workers served %d sessions\n", workers, mgr.Len())
	for _, user := range users {
		s, _ := mgr.Get(user)
		fmt.Printf("%s: %d summaries\n", user, len(s.Results()))
	}
	mgr.Close()
	// Output:
	// 2 workers served 4 sessions
	// alice: 16 summaries
	// bob: 16 summaries
	// carol: 16 summaries
	// dave: 16 summaries
}

// ExampleManager_backpressure documents the admission contract: past
// the admission cap the manager rejects new sessions with the typed
// ErrOverloaded, and admits again once load drops. The same rejection
// travels the wire protocol as HTTP 503 with a Retry-After hint.
func ExampleManager_backpressure() {
	mgr := session.NewManager(core.DefaultConfig())
	mgr.Catalog().Register(sensorTable())
	mgr.SetAdmissionCap(2) // hard ceiling: reject, don't evict

	for _, user := range []string{"alice", "bob"} {
		if _, err := mgr.Create(user); err != nil {
			panic(err)
		}
	}
	_, err := mgr.Create("carol")
	fmt.Println("overloaded:", errors.Is(err, session.ErrOverloaded))
	fmt.Println(err)

	// The caller backs off; capacity returns when a session leaves.
	mgr.Evict("alice")
	_, err = mgr.Create("carol")
	fmt.Println("after eviction:", err)
	mgr.Close()
	// Output:
	// overloaded: true
	// session "carol": overloaded (2 live sessions at admission cap 2)
	// after eviction: <nil>
}
