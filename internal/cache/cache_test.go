package cache

import (
	"testing"
	"time"

	"dbtouch/internal/iomodel"
	"dbtouch/internal/vclock"
)

// warmSet builds a warm set from block → last use.
func warmSet(lastUse map[int]time.Duration) *iomodel.WarmSet {
	w := new(iomodel.WarmSet)
	for b, use := range lastUse {
		w.Set(b, use)
	}
	return w
}

func TestGestureAwareKeepsFingerNeighborhood(t *testing.T) {
	g := NewGestureAware(4)
	lastUse := map[int]time.Duration{}
	// Finger moved forward through blocks 0..20, budget retains them all
	// so far: the frontier is block 20, moving +1.
	for b := 0; b <= 20; b++ {
		lastUse[b] = time.Duration(b)
	}
	victim := g.Victim(warmSet(lastUse), 20, 1)
	if victim != 0 {
		t.Fatalf("victim = %d, want 0 (farthest from frontier 20)", victim)
	}
}

func TestGestureAwareVictimFallsBackWithoutState(t *testing.T) {
	g := NewGestureAware(4)
	lastUse := map[int]time.Duration{3: 1, 7: 2}
	v := g.Victim(warmSet(lastUse), -1, 0)
	if v != 3 && v != 7 {
		t.Fatalf("victim %d not a warm block", v)
	}
}

// TestGestureAwareTieGoesToLowerBlock pins the full-tie rule: blocks 5
// and 15 are equally far from the frontier (10) and equally recent, so
// the lower one is evicted — every time, whatever order the warm set is
// built or scanned in.
func TestGestureAwareTieGoesToLowerBlock(t *testing.T) {
	g := NewGestureAware(4)
	for i := 0; i < 200; i++ {
		if v := g.Victim(warmSet(map[int]time.Duration{5: 1, 15: 1, 10: 2}), 10, 0); v != 5 {
			t.Fatalf("call %d: victim = %d, want 5 (the lower of two tied blocks)", i, v)
		}
	}
	// Negative blocks tie the same way, and block -1 is a block like any
	// other rather than a "no victim yet" marker.
	if v := g.Victim(warmSet(map[int]time.Duration{-1: 1, 1: 1, 0: 2}), 0, 0); v != -1 {
		t.Fatalf("victim = %d, want -1", v)
	}
}

func TestNonePolicyEvictsNewest(t *testing.T) {
	n := None{}
	lastUse := map[int]time.Duration{1: 10, 2: 30, 3: 20}
	if v := n.Victim(warmSet(lastUse), -1, 0); v != 2 {
		t.Fatalf("victim = %d, want newest (2)", v)
	}
}

// The policies must satisfy iomodel.EvictionPolicy and actually drive a
// tracker.
func TestPoliciesIntegrateWithTracker(t *testing.T) {
	for _, policy := range []iomodel.EvictionPolicy{NewGestureAware(4), None{}} {
		clock := vclock.New()
		tr := iomodel.New(clock, iomodel.Params{
			BlockValues: 4, ColdLatency: time.Millisecond, WarmLatency: time.Microsecond, WarmBudget: 2,
		}, policy)
		for i := 0; i < 40; i += 4 {
			tr.Access(i)
		}
		if tr.WarmBlocks() > 2 {
			t.Fatalf("%s: budget exceeded: %d warm", policy.Name(), tr.WarmBlocks())
		}
		if tr.Stats().Evictions == 0 {
			t.Fatalf("%s: no evictions under pressure", policy.Name())
		}
	}
}

// A gesture that pauses and re-examines the area just behind the finger
// (the paper's canonical revisit) benefits from keeping the frontier
// neighborhood warm; a policy ignorant of the gesture keeps stale blocks.
func TestGestureAwareRevisitBeatsNone(t *testing.T) {
	run := func(policy iomodel.EvictionPolicy) int64 {
		clock := vclock.New()
		tr := iomodel.New(clock, iomodel.Params{
			BlockValues: 1, ColdLatency: time.Millisecond, WarmLatency: time.Microsecond, WarmBudget: 8,
		}, policy)
		tr.SetDirection(1)
		for b := 0; b < 16; b++ {
			tr.Access(b) // slide down once
		}
		for pass := 0; pass < 3; pass++ {
			for b := 15; b >= 12; b-- {
				tr.SetDirection(-1)
				tr.Access(b) // re-examine just behind the finger
			}
			for b := 12; b <= 15; b++ {
				tr.SetDirection(1)
				tr.Access(b)
			}
		}
		return tr.Stats().ColdFetches
	}
	aware := run(NewGestureAware(4))
	none := run(None{})
	if aware >= none {
		t.Fatalf("gesture-aware cold=%d, none cold=%d; aware should refetch less", aware, none)
	}
}
