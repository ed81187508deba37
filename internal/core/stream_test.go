package core

import (
	"dbtouch/internal/gesture"
	"dbtouch/internal/operator"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"
)

// resultsEqual is DeepEqual except that two NaN aggregates compare equal
// (NaN != NaN).
func resultsEqual(a, b Result) bool {
	if math.IsNaN(a.Agg) && math.IsNaN(b.Agg) {
		a.Agg, b.Agg = 0, 0
	}
	return reflect.DeepEqual(a, b)
}

func TestResultStreamCursor(t *testing.T) {
	s := newResultStream(4)
	if _, ok := s.TryNext(); ok {
		t.Fatal("TryNext on an empty stream should report no result")
	}
	for i := 0; i < 3; i++ {
		s.push(Result{TupleID: i})
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	for i := 0; i < 3; i++ {
		r, ok := s.Next()
		if !ok || r.TupleID != i {
			t.Fatalf("Next #%d = (%v, %v), want in-order delivery", i, r.TupleID, ok)
		}
	}
}

func TestResultStreamDropsOldestWhenFull(t *testing.T) {
	s := newResultStream(2)
	for i := 0; i < 5; i++ {
		s.push(Result{TupleID: i})
	}
	if got := s.Dropped(); got != 3 {
		t.Fatalf("Dropped = %d, want 3", got)
	}
	// The newest results survive; the kernel was never blocked.
	r, _ := s.Next()
	if r.TupleID != 3 {
		t.Fatalf("first surviving result = %d, want 3", r.TupleID)
	}
}

func TestResultStreamCloseDrainsThenEnds(t *testing.T) {
	s := newResultStream(4)
	s.push(Result{TupleID: 1})
	s.Close()
	if !s.Closed() {
		t.Fatal("Closed() = false after Close")
	}
	if r, ok := s.Next(); !ok || r.TupleID != 1 {
		t.Fatal("Close must not discard buffered results")
	}
	if _, ok := s.Next(); ok {
		t.Fatal("drained closed stream must end")
	}
	if s.push(Result{}) {
		t.Fatal("push to a closed stream must report closed")
	}
}

func TestResultStreamCrossGoroutine(t *testing.T) {
	s := newResultStream(8)
	const n = 500
	var got []Result
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r, ok := s.Next(); ok; r, ok = s.Next() {
			got = append(got, r)
		}
	}()
	for i := 0; i < n; i++ {
		s.push(Result{TupleID: i})
		if i%16 == 0 {
			time.Sleep(time.Microsecond)
		}
	}
	s.Close()
	wg.Wait()
	if int64(len(got))+s.Dropped() != n {
		t.Fatalf("delivered %d + dropped %d != produced %d", len(got), s.Dropped(), n)
	}
	for i := 1; i < len(got); i++ {
		if got[i].TupleID <= got[i-1].TupleID {
			t.Fatal("delivery out of order")
		}
	}
}

func TestKernelSubscribeObservesPerform(t *testing.T) {
	k, obj := testKernel(t, 100000, DefaultConfig())
	obj.SetActions(Actions{Mode: ModeSummary, Agg: operator.Avg, SummaryK: 10})
	stream := k.Subscribe(0)
	early := k.Subscribe(0)
	early.Close() // closed before any emission: must be unsubscribed, not break emit

	results, err := k.Perform(gesture.NewSlide(obj.ID(), 0, 1, 2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("slide produced no results")
	}
	for i, want := range results {
		got, ok := stream.TryNext()
		if !ok {
			t.Fatalf("stream ended at %d, want %d results", i, len(results))
		}
		if !resultsEqual(got, want) {
			t.Fatalf("stream result %d = %+v, want %+v", i, got, want)
		}
	}
	if _, ok := stream.TryNext(); ok {
		t.Fatal("stream delivered more than the kernel emitted")
	}
	if stream.Dropped() != 0 {
		t.Fatalf("unexpected drops: %d", stream.Dropped())
	}
}

func TestKernelPerformMatchesApply(t *testing.T) {
	mk := func() (*Kernel, *Object) {
		k, obj := testKernel(t, 50000, DefaultConfig())
		obj.SetActions(Actions{Mode: ModeSummary, Agg: operator.Avg, SummaryK: 5})
		return k, obj
	}
	kA, objA := mk()
	kB, objB := mk()

	// Path A: raw synthesized events through Apply (the pre-protocol way).
	eventsA := slideEvents(objA, time.Second, 0)
	resA := kA.Apply(eventsA)

	// Path B: the same gesture as a description through Perform.
	resB, err := kB.Perform(gesture.NewSlide(objB.ID(), 0, 1, time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if len(resB) == 0 {
		t.Fatal("Perform produced no results")
	}
	// Endpoints differ slightly (slideEvents insets 0.05, Perform 0.02),
	// so assert stream shape rather than equality here; exact equality is
	// asserted by the facade and protocol equivalence suites.
	if countResults(resA, SummaryValue) == 0 || countResults(resB, SummaryValue) == 0 {
		t.Fatal("both paths must produce summaries")
	}

	// Unknown target and invalid descriptions fail cleanly.
	if _, err := kB.Perform(gesture.NewSlide(999, 0, 1, time.Second)); err == nil {
		t.Fatal("Perform on unknown object must error")
	}
	before := kB.Clock().Now()
	if _, err := kB.Perform(gesture.NewZoom(objB.ID(), 0)); err == nil {
		t.Fatal("zoom factor 0 must error")
	}
	if kB.Clock().Now() != before {
		t.Fatal("failed Perform must not advance the clock")
	}
}

func TestKernelPerformMove(t *testing.T) {
	k, obj := testKernel(t, 1000, DefaultConfig())
	if _, err := k.Perform(gesture.NewMove(obj.ID(), 5, 6)); err != nil {
		t.Fatal(err)
	}
	f := obj.View().Frame()
	if f.Origin.X != 5 || f.Origin.Y != 6 {
		t.Fatalf("move landed at (%v, %v), want (5, 6)", f.Origin.X, f.Origin.Y)
	}
	if k.Clock().Now() != 0 {
		t.Fatal("move must not advance the clock")
	}
}
