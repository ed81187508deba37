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
// its warm blocks in a block-indexed WarmSet and the gesture frontier in
// itself, handing it to Victim; mapTracker below is the map-keyed tracker
// it replaced, kept verbatim as the reference, with map copies of the
// three eviction policies, told of every charged block through TouchedN.
// Random call scripts under warm budgets small enough to evict constantly
// must leave both with the same costs, clock, stats and warm set after
// every call.

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

// trackerPolicies pairs each eviction policy with its map copy.
var trackerPolicies = []struct {
	name string
	mk   func() (iomodel.EvictionPolicy, mapPolicy)
}{
	{"lru", func() (iomodel.EvictionPolicy, mapPolicy) { return nil, mapLRU{} }},
	{"none", func() (iomodel.EvictionPolicy, mapPolicy) { return None{}, mapNone{} }},
	{"gesture-aware", func() (iomodel.EvictionPolicy, mapPolicy) {
		return NewGestureAware(3), &mapGestureAware{window: 3, lastB: -1}
	}},
}

func TestTrackerMatchesMapReference(t *testing.T) {
	for _, pc := range trackerPolicies {
		for _, budget := range []int{0, 1, 2, 5, 40} {
			for seed := int64(1); seed <= 4; seed++ {
				t.Run(fmt.Sprintf("%s/budget%d/seed%d", pc.name, budget, seed), func(t *testing.T) {
					diffScript(t, rand.New(rand.NewSource(seed*100+int64(budget))).Intn, budget, pc.mk)
				})
			}
		}
	}
}

// FuzzTrackerMatchesMapReference is TestTrackerMatchesMapReference with
// the fuzzer choosing the seed, the budget, the policy and the script:
// the script's choices are read from script's bytes while they last,
// then drawn from the seed.
func FuzzTrackerMatchesMapReference(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(2), []byte{0, 2, 12, 1, 1, 2, 1, 7})
	f.Add(int64(7), uint8(5), uint8(1), []byte{1, 0, 2, 15})
	f.Add(int64(3), uint8(0), uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, budget, policy uint8, script []byte) {
		rng := rand.New(rand.NewSource(seed))
		pick := func(n int) int {
			if len(script) == 0 {
				return rng.Intn(n)
			}
			v := 0
			for m := 1; m < n && len(script) > 0; m <<= 8 {
				v = v<<8 | int(script[0])
				script = script[1:]
			}
			return v % n
		}
		diffScript(t, pick, int(budget%48), trackerPolicies[int(policy)%len(trackerPolicies)].mk)
	})
}

// diffScript runs one random call script, its choices drawn by pick(n)
// from [0, n), against both trackers. Indices span negative blocks (a
// prefetch extrapolated past the start reaches them) and several WarmSet
// pages; spans stay short enough that a script revisits its blocks. Half
// the scripts read warm values for free, so a run of charges leaves its
// blocks' last uses tied and victims turn on the policies' tie-breaks.
func diffScript(t *testing.T, pick func(n int) int, budget int, mk func() (iomodel.EvictionPolicy, mapPolicy)) {
	t.Helper()
	params := iomodel.Params{BlockValues: 7, ColdLatency: 40 * time.Microsecond, WarmLatency: time.Duration(pick(2)) * 3 * time.Nanosecond, WarmBudget: budget}
	policy, refPolicy := mk()
	clock := vclock.New()
	got := iomodel.New(clock, params, policy)
	ref := &mapTracker{params: params, clock: vclock.New(), warm: map[int]time.Duration{}, policy: refPolicy}
	// Touch positions cluster around a wandering finger, with an
	// occasional jump across pages (512 blocks of 7 values each).
	finger := 0
	pos := func() int {
		if pick(20) == 0 {
			finger = pick(20000) - 6000
		}
		finger += pick(61) - 30
		return finger
	}
	for step := 0; step < 600; step++ {
		dir := pick(3) - 1
		got.SetDirection(dir)
		ref.dir = dir
		lo := pos()
		hi := lo + pick(40)
		var call string
		var gotCost, refCost time.Duration
		switch pick(7) {
		case 0:
			call = fmt.Sprintf("Access(%d)", lo)
			gotCost, refCost = got.Access(lo), ref.access(lo)
		case 1:
			call = fmt.Sprintf("AccessRange(%d, %d)", lo, hi)
			gotCost, refCost = got.AccessRange(lo, hi), ref.accessRange(lo, hi)
		case 2:
			// A run of per-block counts, some zero or negative, long
			// enough for small budgets to evict mid-run.
			counts := make([]int32, pick(16))
			for i := range counts {
				if pick(3) != 0 {
					counts[i] = int32(pick(9) - 1)
				}
			}
			b0 := ref.block(lo)
			call = fmt.Sprintf("AccessCounts(%d, %v)", b0, counts)
			gotCost = got.AccessCounts(b0, counts)
			for i, k := range counts {
				refCost += ref.accessCount((b0+i)*params.BlockValues, int(k))
			}
		case 3:
			stride := pick(12)
			call = fmt.Sprintf("AccessStrided(%d, %d, %d)", lo, hi+40, stride)
			gotCost, refCost = got.AccessStrided(lo, hi+40, stride), ref.accessStrided(lo, hi+40, stride)
		case 4:
			b := time.Duration(pick(3)) * params.ColdLatency
			call = fmt.Sprintf("PrefetchBlock(%d, %v)", lo, b)
			gotCost, refCost = got.PrefetchBlock(lo, b), ref.prefetchBlock(lo, b)
		case 5:
			b := time.Duration(pick(6)) * params.ColdLatency
			if pick(2) == 0 {
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
			if pick(10) != 0 {
				continue
			}
			call = "Cool()"
			got.Cool()
			ref.warm = map[int]time.Duration{}
		}
		if gotCost != refCost {
			t.Fatalf("step %d %s: cost %v, reference %v", step, call, gotCost, refCost)
		}
		if clock.Now() != ref.clock.Now() {
			t.Fatalf("step %d %s: clock %v, reference %v", step, call, clock.Now(), ref.clock.Now())
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
// counts, as a fused slide does — allocates nothing, under the default
// policy and the gesture-aware one dbtouch-serve runs.
func TestChargingWarmBlocksAllocatesNothing(t *testing.T) {
	for _, policy := range []iomodel.EvictionPolicy{iomodel.LRU{}, NewGestureAware(8)} {
		tr := iomodel.New(vclock.New(), iomodel.DefaultParams(), policy)
		const lo, hi = 3_000_000, 3_500_000 // a slide far down a 4M-row column
		tr.AccessRange(lo, hi)
		bv := tr.Params().BlockValues
		counts := make([]int32, (hi-lo)/bv)
		for i := range counts {
			counts[i] = 300
		}
		allocs := testing.AllocsPerRun(20, func() {
			tr.SetDirection(1)
			tr.AccessRange(lo, hi)
			tr.AccessCounts(lo/bv, counts)
		})
		if allocs != 0 {
			t.Fatalf("%s: charging warm blocks allocated %v times per span, want 0", policy.Name(), allocs)
		}
	}
}
