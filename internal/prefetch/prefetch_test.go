package prefetch

import (
	"testing"
	"time"

	"dbtouch/internal/iomodel"
	"dbtouch/internal/vclock"
)

func TestExtrapolatorVelocity(t *testing.T) {
	e := &Extrapolator{}
	// 1000 tuples per 100ms = 10k tuples/sec forward.
	for i := 0; i <= 5; i++ {
		e.Observe(i*1000, time.Duration(i)*100*time.Millisecond)
	}
	v := e.Velocity()
	if v < 9000 || v > 11000 {
		t.Fatalf("velocity = %v, want ≈10000", v)
	}
	if e.Direction() != 1 {
		t.Fatalf("direction = %d", e.Direction())
	}
}

func TestExtrapolatorBackwardDirection(t *testing.T) {
	e := &Extrapolator{}
	for i := 0; i <= 5; i++ {
		e.Observe(10000-i*1000, time.Duration(i)*100*time.Millisecond)
	}
	if e.Direction() != -1 {
		t.Fatalf("direction = %d, want -1", e.Direction())
	}
	from, to := e.Predict(100 * time.Millisecond)
	if from >= to {
		t.Fatalf("predict range inverted: [%d,%d]", from, to)
	}
	if to > 5000 {
		t.Fatalf("backward prediction should extend below last id: [%d,%d]", from, to)
	}
}

func TestPredictPausedCoversBothDirections(t *testing.T) {
	e := &Extrapolator{}
	e.Observe(500, 0)
	e.Observe(500, 100*time.Millisecond) // no movement
	lo, hi := e.Predict(time.Second)
	if lo >= 500 || hi <= 500 {
		t.Fatalf("paused prediction [%d,%d] should straddle 500", lo, hi)
	}
}

func TestPredictUnobserved(t *testing.T) {
	e := &Extrapolator{}
	lo, hi := e.Predict(time.Second)
	if lo != 0 || hi != 0 {
		t.Fatalf("unobserved predict = [%d,%d]", lo, hi)
	}
}

func TestExtrapolatorReset(t *testing.T) {
	e := &Extrapolator{Alpha: 0.5}
	e.Observe(10, 0)
	e.Observe(20, time.Millisecond)
	e.Reset()
	if e.Observed() != 0 || e.Velocity() != 0 {
		t.Fatal("Reset incomplete")
	}
	if e.Alpha != 0.5 {
		t.Fatal("Reset should keep Alpha")
	}
}

func TestPrefetcherWarmsPredictedPath(t *testing.T) {
	clock := vclock.New()
	tr := iomodel.New(clock, iomodel.Params{
		BlockValues: 100, ColdLatency: time.Millisecond, WarmLatency: time.Microsecond, WarmBudget: 0,
	}, nil)
	e := &Extrapolator{Alpha: 1} // no smoothing: exact step estimates
	p := New(e)

	// Gesture moving forward 1000 tuples per 100ms.
	for i := 0; i <= 5; i++ {
		e.Observe(i*1000, time.Duration(i)*100*time.Millisecond)
	}
	p.OnIdle(0, 50*time.Millisecond, tr, nil)
	// Predicted positions are 6000, 7000, ... (step 1000/touch).
	if !tr.IsWarm(6000) || !tr.IsWarm(9000) {
		t.Fatal("predicted touch positions not warmed")
	}
	st := p.Stats()
	if st.Invocations != 1 || st.IdleSpent == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPrefetcherDisabled(t *testing.T) {
	clock := vclock.New()
	tr := iomodel.New(clock, iomodel.DefaultParams(), nil)
	e := &Extrapolator{}
	e.Observe(0, 0)
	e.Observe(1000, 100*time.Millisecond)
	p := New(e)
	p.Enabled = false
	p.OnIdle(0, time.Second, tr, nil)
	if tr.WarmBlocks() != 0 {
		t.Fatal("disabled prefetcher warmed blocks")
	}
}

func TestPrefetcherRespectsClamp(t *testing.T) {
	clock := vclock.New()
	tr := iomodel.New(clock, iomodel.Params{
		BlockValues: 10, ColdLatency: time.Millisecond, WarmLatency: time.Microsecond,
	}, nil)
	e := &Extrapolator{}
	for i := 0; i <= 5; i++ {
		e.Observe(i*100, time.Duration(i)*50*time.Millisecond)
	}
	clamp := func(id int) int {
		if id < 0 {
			return 0
		}
		if id > 120 {
			return 120
		}
		return id
	}
	p := New(e)
	p.OnIdle(0, time.Second, tr, clamp)
	if tr.IsWarm(500) {
		t.Fatal("prefetch escaped the clamp")
	}
	if !tr.IsWarm(120) {
		t.Fatal("clamped range should still be warmed")
	}
}

func TestPrefetcherZeroBudgetNoop(t *testing.T) {
	clock := vclock.New()
	tr := iomodel.New(clock, iomodel.DefaultParams(), nil)
	e := &Extrapolator{}
	e.Observe(0, 0)
	p := New(e)
	p.OnIdle(100, 100, tr, nil)
	if tr.WarmBlocks() != 0 {
		t.Fatal("zero budget should do nothing")
	}
}

func TestPrefetcherNilSafe(t *testing.T) {
	var p *Prefetcher
	p.OnIdle(0, time.Second, nil, nil) // must not panic
}

func TestPrefetcherRangedWarmCoversWholeSpan(t *testing.T) {
	clock := vclock.New()
	tr := iomodel.New(clock, iomodel.Params{
		BlockValues: 100, ColdLatency: time.Millisecond, WarmLatency: time.Microsecond,
	}, nil)
	e := &Extrapolator{Alpha: 1}
	p := New(e)

	// Forward gesture, 1000 tuples per 100ms: over the 500ms horizon the
	// extrapolated next span is [5000, 10000); span execution will
	// consume every tuple of it, so the warm must be contiguous —
	// including tuples between the predicted touch positions.
	for i := 0; i <= 5; i++ {
		e.Observe(i*1000, time.Duration(i)*100*time.Millisecond)
	}
	p.OnIdle(0, time.Minute, tr, nil)
	for id := 5000; id < 10000; id += 100 {
		if !tr.IsWarm(id) {
			t.Fatalf("tuple %d in the extrapolated span is cold", id)
		}
	}
}

func TestPrefetcherBackwardRangedWarm(t *testing.T) {
	clock := vclock.New()
	tr := iomodel.New(clock, iomodel.Params{
		BlockValues: 100, ColdLatency: time.Millisecond, WarmLatency: time.Microsecond,
	}, nil)
	e := &Extrapolator{Alpha: 1}
	p := New(e)
	// Backward gesture from 20000, 1000 tuples per 100ms.
	for i := 0; i <= 5; i++ {
		e.Observe(20000-i*1000, time.Duration(i)*100*time.Millisecond)
	}
	// Tight budget: only 20 cold blocks fit, and they must be the ones
	// nearest the finger (the high end of the predicted span).
	p.OnIdle(0, 20*time.Millisecond, tr, nil)
	if !tr.IsWarm(14950) || !tr.IsWarm(13100) {
		t.Fatal("blocks nearest the finger should be warmed first going backward")
	}
	if tr.IsWarm(5500) {
		t.Fatal("far end of the backward span should not be warmed before the near end")
	}
}

func TestPrefetcherFrontierResumesAcrossIdleWindows(t *testing.T) {
	clock := vclock.New()
	tr := iomodel.New(clock, iomodel.Params{
		BlockValues: 100, ColdLatency: time.Millisecond, WarmLatency: time.Microsecond,
	}, nil)
	e := &Extrapolator{Alpha: 1}
	p := New(e)
	for i := 0; i <= 5; i++ {
		e.Observe(i*1000, time.Duration(i)*100*time.Millisecond)
	}
	// Two consecutive idle windows of one pause: the second must extend
	// past where the first stopped, not re-walk the warm prefix.
	p.OnIdle(0, 10*time.Millisecond, tr, nil) // 10 cold blocks: 5000..6000
	prefetchedAfterFirst := tr.Stats().Prefetched
	if prefetchedAfterFirst == 0 {
		t.Fatal("first window warmed nothing")
	}
	p.OnIdle(10*time.Millisecond, 20*time.Millisecond, tr, nil)
	if got := tr.Stats().Prefetched; got != 2*prefetchedAfterFirst {
		t.Fatalf("second window prefetched %d blocks total, want %d (budget spent re-walking the warm prefix?)",
			got, 2*prefetchedAfterFirst)
	}
}
