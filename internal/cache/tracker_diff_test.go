package cache

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dbtouch/internal/iomodel"
	"dbtouch/internal/vclock"
)

// The differential suite for cost-model charging: iomodel.Tracker keeps
// its warm blocks in a block-indexed WarmSet; mapTracker below is the
// map-keyed tracker it replaced, kept verbatim as the reference, with map
// copies of the three eviction policies. Random call scripts under warm
// budgets small enough to evict constantly must leave both with the same
// costs, clock, stats and warm set after every call.

// mapPolicy is the eviction-policy interface as the map-keyed tracker
// called it: a ranged touch per charged block, and a victim picked from
// the map.
type mapPolicy interface {
	TouchedN(b, n int, now time.Duration, dir int)
	Victim(lastUse map[int]time.Duration) int
}

type mapLRU struct{}

func (mapLRU) TouchedN(int, int, time.Duration, int) {}

func (mapLRU) Victim(lastUse map[int]time.Duration) int { return mapOldest(lastUse) }

func mapOldest(lastUse map[int]time.Duration) int {
	victim, oldest := -1, time.Duration(1<<62)
	for b, t := range lastUse {
		if t < oldest || (t == oldest && b < victim) {
			victim, oldest = b, t
		}
	}
	return victim
}

type mapNone struct{}

func (mapNone) TouchedN(int, int, time.Duration, int) {}

func (mapNone) Victim(lastUse map[int]time.Duration) int {
	victim, newest := -1, time.Duration(-1)
	for b, t := range lastUse {
		if t > newest || (t == newest && b > victim) {
			victim, newest = b, t
		}
	}
	return victim
}

type mapGestureAware struct{ window, lastB, dir int }

func (g *mapGestureAware) TouchedN(b, _ int, _ time.Duration, dir int) {
	g.lastB = b
	if dir != 0 {
		g.dir = dir
	}
}

func (g *mapGestureAware) Victim(lastUse map[int]time.Duration) int {
	victim, found := -1, false
	var victimScore float64
	var victimUse time.Duration
	for b, use := range lastUse {
		dist := b - g.lastB
		if g.lastB < 0 {
			dist = 0
		}
		score := -absInt(dist)
		if g.dir != 0 && dist*g.dir < 0 && absInt(dist) > float64(g.window) {
			score -= float64(g.window)
		}
		if !found || score < victimScore || (score == victimScore && (use < victimUse || use == victimUse && b < victim)) {
			victim, victimScore, victimUse, found = b, score, use, true
		}
	}
	return victim
}

// mapTracker is the map-keyed iomodel.Tracker, charging as it did.
type mapTracker struct {
	params iomodel.Params
	clock  *vclock.Clock
	warm   map[int]time.Duration
	policy mapPolicy
	stats  iomodel.Stats
	dir    int
}

func (t *mapTracker) block(idx int) int { return idx / t.params.BlockValues }

func (t *mapTracker) isWarm(idx int) bool {
	_, ok := t.warm[t.block(idx)]
	return ok
}

func (t *mapTracker) access(idx int) time.Duration {
	cost := t.chargeBlock(t.block(idx), 1, t.clock.Now())
	t.clock.Advance(cost)
	return cost
}

func (t *mapTracker) accessRange(lo, hi int) time.Duration {
	if hi <= lo {
		return 0
	}
	now := t.clock.Now()
	bv := t.params.BlockValues
	var total time.Duration
	for b := lo / bv; b <= (hi-1)/bv; b++ {
		first, last := max(b*bv, lo), min((b+1)*bv, hi)
		total += t.chargeBlock(b, last-first, now)
	}
	t.clock.Advance(total)
	return total
}

func (t *mapTracker) accessCount(idx, k int) time.Duration {
	if k <= 0 {
		return 0
	}
	cost := t.chargeBlock(t.block(idx), k, t.clock.Now())
	t.clock.Advance(cost)
	return cost
}

func (t *mapTracker) accessStrided(lo, hi, stride int) time.Duration {
	if stride <= 0 || hi <= lo {
		return 0
	}
	now := t.clock.Now()
	bv := t.params.BlockValues
	var total time.Duration
	curB, run := -1, 0
	for i := lo; i < hi; i += stride {
		if b := i / bv; b != curB {
			if run > 0 {
				total += t.chargeBlock(curB, run, now)
			}
			curB, run = b, 1
		} else {
			run++
		}
	}
	if run > 0 {
		total += t.chargeBlock(curB, run, now)
	}
	t.clock.Advance(total)
	return total
}

func (t *mapTracker) chargeBlock(b, k int, now time.Duration) time.Duration {
	cost := time.Duration(k) * t.params.WarmLatency
	if _, ok := t.warm[b]; !ok {
		cost += t.params.ColdLatency
		t.warmBlock(b, now)
		t.stats.ColdFetches++
		t.stats.BytesRead += int64(t.params.BlockValues) * 8
		if _, still := t.warm[b]; still {
			t.stats.WarmHits += int64(k - 1)
		} else {
			for i := 1; i < k; i++ {
				cost += t.params.ColdLatency
				t.warmBlock(b, now)
				t.stats.ColdFetches++
				t.stats.BytesRead += int64(t.params.BlockValues) * 8
			}
		}
	} else {
		t.warm[b] = now
		t.stats.WarmHits += int64(k)
	}
	t.stats.ValuesRead += int64(k)
	t.policy.TouchedN(b, k, now, t.dir)
	return cost
}

func (t *mapTracker) warmBlock(b int, now time.Duration) {
	t.warm[b] = now
	if t.params.WarmBudget > 0 && len(t.warm) > t.params.WarmBudget {
		victim := t.policy.Victim(t.warm)
		if _, ok := t.warm[victim]; !ok {
			victim = mapOldest(t.warm)
		}
		delete(t.warm, victim)
		t.stats.Evictions++
	}
}

func (t *mapTracker) prefetchBlock(idx int, budget time.Duration) time.Duration {
	b := t.block(idx)
	if _, ok := t.warm[b]; ok || budget < t.params.ColdLatency {
		return 0
	}
	t.warmBlock(b, t.clock.Now())
	t.stats.Prefetched++
	t.stats.BytesRead += int64(t.params.BlockValues) * 8
	return t.params.ColdLatency
}

func (t *mapTracker) prefetchRange(lo, hi int, budget time.Duration) (time.Duration, int) {
	if lo > hi {
		lo, hi = hi, lo
	}
	var used time.Duration
	b := t.block(lo)
	for ; b <= t.block(hi); b++ {
		if budget-used < t.params.ColdLatency && !t.isWarm(b*t.params.BlockValues) {
			break
		}
		used += t.prefetchBlock(b*t.params.BlockValues, budget-used)
	}
	return used, b * t.params.BlockValues
}

func TestTrackerMatchesMapReference(t *testing.T) {
	policies := []struct {
		name string
		mk   func() (iomodel.EvictionPolicy, mapPolicy)
	}{
		{"lru", func() (iomodel.EvictionPolicy, mapPolicy) { return nil, mapLRU{} }},
		{"none", func() (iomodel.EvictionPolicy, mapPolicy) { return None{}, mapNone{} }},
		{"gesture-aware", func() (iomodel.EvictionPolicy, mapPolicy) {
			return NewGestureAware(3), &mapGestureAware{window: 3, lastB: -1}
		}},
	}
	for _, pc := range policies {
		for _, budget := range []int{0, 1, 2, 5, 40} {
			for seed := int64(1); seed <= 4; seed++ {
				t.Run(fmt.Sprintf("%s/budget%d/seed%d", pc.name, budget, seed), func(t *testing.T) {
					diffScript(t, rand.New(rand.NewSource(seed*100+int64(budget))), budget, pc.mk)
				})
			}
		}
	}
}

// diffScript runs one random call script against both trackers. Indices
// span negative blocks (a prefetch extrapolated past the start reaches
// them) and several WarmSet pages; spans stay short enough that a
// script revisits its blocks.
func diffScript(t *testing.T, rng *rand.Rand, budget int, mk func() (iomodel.EvictionPolicy, mapPolicy)) {
	t.Helper()
	params := iomodel.Params{BlockValues: 7, ColdLatency: 40 * time.Microsecond, WarmLatency: 3 * time.Nanosecond, WarmBudget: budget}
	policy, refPolicy := mk()
	got := iomodel.New(vclock.New(), params, policy)
	ref := &mapTracker{params: params, clock: vclock.New(), warm: map[int]time.Duration{}, policy: refPolicy}
	// Touch positions cluster around a wandering finger, with an
	// occasional jump across pages (512 blocks of 7 values each).
	finger := 0
	pos := func() int {
		if rng.Intn(20) == 0 {
			finger = rng.Intn(20000) - 6000
		}
		finger += rng.Intn(61) - 30
		return finger
	}
	for step := 0; step < 600; step++ {
		dir := rng.Intn(3) - 1
		got.SetDirection(dir)
		ref.dir = dir
		lo := pos()
		hi := lo + rng.Intn(40)
		var call string
		var gotCost, refCost time.Duration
		switch rng.Intn(7) {
		case 0:
			call = fmt.Sprintf("Access(%d)", lo)
			gotCost, refCost = got.Access(lo), ref.access(lo)
		case 1:
			call = fmt.Sprintf("AccessRange(%d, %d)", lo, hi)
			gotCost, refCost = got.AccessRange(lo, hi), ref.accessRange(lo, hi)
		case 2:
			k := rng.Intn(9) - 1
			call = fmt.Sprintf("AccessCount(%d, %d)", lo, k)
			gotCost, refCost = got.AccessCount(lo, k), ref.accessCount(lo, k)
		case 3:
			stride := rng.Intn(12)
			call = fmt.Sprintf("AccessStrided(%d, %d, %d)", lo, hi+40, stride)
			gotCost, refCost = got.AccessStrided(lo, hi+40, stride), ref.accessStrided(lo, hi+40, stride)
		case 4:
			b := time.Duration(rng.Intn(3)) * params.ColdLatency
			call = fmt.Sprintf("PrefetchBlock(%d, %v)", lo, b)
			gotCost, refCost = got.PrefetchBlock(lo, b), ref.prefetchBlock(lo, b)
		case 5:
			b := time.Duration(rng.Intn(6)) * params.ColdLatency
			if rng.Intn(2) == 0 {
				lo, hi = hi, lo
			}
			call = fmt.Sprintf("PrefetchRange(%d, %d, %v)", lo, hi, b)
			var gotFrontier, refFrontier int
			gotCost, gotFrontier = got.PrefetchRange(lo, hi, b)
			refCost, refFrontier = ref.prefetchRange(lo, hi, b)
			if gotFrontier != refFrontier {
				t.Fatalf("step %d %s: frontier %d, reference %d", step, call, gotFrontier, refFrontier)
			}
		default:
			if rng.Intn(10) != 0 {
				continue
			}
			call = "Cool()"
			got.Cool()
			ref.warm = map[int]time.Duration{}
		}
		if gotCost != refCost {
			t.Fatalf("step %d %s: cost %v, reference %v", step, call, gotCost, refCost)
		}
		if got.Stats() != ref.stats {
			t.Fatalf("step %d %s: stats %+v, reference %+v", step, call, got.Stats(), ref.stats)
		}
		if got.WarmBlocks() != len(ref.warm) {
			t.Fatalf("step %d %s: %d warm blocks, reference %d", step, call, got.WarmBlocks(), len(ref.warm))
		}
		for b := range ref.warm {
			if !got.IsWarm(b * params.BlockValues) {
				t.Fatalf("step %d %s: block %d cold, warm in the reference", step, call, b)
			}
		}
		if idx := pos(); got.IsWarm(idx) != ref.isWarm(idx) {
			t.Fatalf("step %d %s: IsWarm(%d) = %v, reference %v", step, call, idx, got.IsWarm(idx), ref.isWarm(idx))
		}
	}
}

// TestChargingWarmBlocksAllocatesNothing is the charging allocation gate:
// once a span's blocks are warm, charging it again — ranged or per-block
// count, as a fused slide does — allocates nothing, under the default
// policy and the gesture-aware one dbtouch-serve runs.
func TestChargingWarmBlocksAllocatesNothing(t *testing.T) {
	for _, policy := range []iomodel.EvictionPolicy{iomodel.LRU{}, NewGestureAware(8)} {
		tr := iomodel.New(vclock.New(), iomodel.DefaultParams(), policy)
		const lo, hi = 3_000_000, 3_500_000 // a slide far down a 4M-row column
		tr.AccessRange(lo, hi)
		bv := tr.Params().BlockValues
		allocs := testing.AllocsPerRun(20, func() {
			tr.SetDirection(1)
			tr.AccessRange(lo, hi)
			for idx := lo; idx < hi; idx += bv {
				tr.AccessCount(idx, 300)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: charging warm blocks allocated %v times per span, want 0", policy.Name(), allocs)
		}
	}
}
