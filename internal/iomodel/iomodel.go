// Package iomodel charges virtual time for data access, simulating the
// storage hierarchy the dbTouch prototype ran on (paper §2.6 "Storing and
// Accessing Data"). Data lives in blocks; the first touch of a block is a
// cold fetch with block latency, later touches are warm per-value reads.
// A warm-block budget models limited fast memory, and pluggable eviction
// policies let the caching experiments (§2.6 "Caching Data") compare
// gesture-aware policies against plain LRU.
package iomodel

import (
	"time"

	"dbtouch/internal/vclock"
)

// Params configures the storage cost model.
type Params struct {
	// BlockValues is the number of fixed-width values per storage block.
	BlockValues int
	// ColdLatency is charged once when a block is first brought warm.
	ColdLatency time.Duration
	// WarmLatency is charged per value read from a warm block.
	WarmLatency time.Duration
	// WarmBudget caps the number of simultaneously warm blocks;
	// 0 means unlimited (no eviction).
	WarmBudget int
}

// DefaultParams models a tablet-class device: 1024-value blocks, 50µs cold
// block fetch, 5ns warm value reads, 4096 warm blocks (~32 MB of 64-bit
// values).
func DefaultParams() Params {
	return Params{
		BlockValues: 1024,
		ColdLatency: 50 * time.Microsecond,
		WarmLatency: 5 * time.Nanosecond,
		WarmBudget:  4096,
	}
}

// EvictionPolicy decides which warm block to drop when the budget is
// exceeded. Implementations live in internal/cache; iomodel ships plain
// LRU as the default.
type EvictionPolicy interface {
	// Touched notifies the policy of a charge against block b at
	// virtual time now, moving in direction dir (-1 backward, 0 unknown,
	// +1 forward): one call per charged block, however many of its
	// values the charge reads, so span charging stays O(blocks).
	Touched(b int, now time.Duration, dir int)
	// Victim picks the block to evict from the warm set, which holds
	// each warm block's last access time. A policy that leaves a choice
	// open must break it by block number, never by iteration order.
	Victim(warm *WarmSet) int
	// Name identifies the policy in benchmark output.
	Name() string
}

// Stats counts cost-model activity.
type Stats struct {
	ColdFetches int64 // blocks fetched cold on the touch path
	WarmHits    int64 // values served from warm blocks
	ValuesRead  int64 // total values charged
	Prefetched  int64 // blocks warmed off the touch path
	Evictions   int64 // blocks evicted
	BytesRead   int64 // bytes moved from cold storage (block fetches)
}

// Tracker charges access costs against a virtual clock for one backing
// array (a column, a sample level, or a row-major slab).
type Tracker struct {
	params Params
	clock  *vclock.Clock
	warm   WarmSet
	policy EvictionPolicy
	stats  Stats
	dir    int
}

// New returns a tracker with the given params. A nil policy selects LRU.
func New(clock *vclock.Clock, params Params, policy EvictionPolicy) *Tracker {
	if params.BlockValues <= 0 {
		params.BlockValues = 1
	}
	if policy == nil {
		policy = LRU{}
	}
	return &Tracker{
		params: params,
		clock:  clock,
		policy: policy,
	}
}

// Params returns the tracker's cost parameters.
func (t *Tracker) Params() Params { return t.params }

// SetDirection records the current gesture movement direction, forwarded
// to the eviction policy on each touch.
func (t *Tracker) SetDirection(dir int) { t.dir = dir }

// Block returns the block index holding value idx.
func (t *Tracker) Block(idx int) int { return idx / t.params.BlockValues }

// IsWarm reports whether the block holding value idx is warm.
func (t *Tracker) IsWarm(idx int) bool {
	_, ok := t.warm.LastUse(t.Block(idx))
	return ok
}

// Access charges the cost of reading the value at idx, advances the clock,
// and returns the charged duration.
func (t *Tracker) Access(idx int) time.Duration {
	return t.AccessCount(idx, 1)
}

// AccessRange charges the cost of reading values [lo, hi), advances the
// clock, and returns the total charged duration. Costs, stats, and warm
// state evolve exactly as a per-value Access loop over the same indices
// would, but the bookkeeping runs once per touched block rather than once
// per value — the iomodel half of span-at-a-time execution.
func (t *Tracker) AccessRange(lo, hi int) time.Duration {
	if hi <= lo {
		return 0
	}
	now := t.clock.Now()
	bv := t.params.BlockValues
	var total time.Duration
	for b := lo / bv; b <= (hi-1)/bv; b++ {
		first := b * bv
		if first < lo {
			first = lo
		}
		last := (b + 1) * bv
		if last > hi {
			last = hi
		}
		total += t.chargeBlock(b, last-first, now)
	}
	t.clock.Advance(total)
	return total
}

// AccessCount charges k value reads against the block holding value idx,
// advancing the clock — the charging primitive for fused filter+aggregate
// scans, which know how many values qualified inside each cost-model
// block without ever materializing their positions. Cost, stats, and
// warm-state evolution match k Access calls (or one AccessRange over k
// contiguous values) within that block.
func (t *Tracker) AccessCount(idx, k int) time.Duration {
	if k <= 0 {
		return 0
	}
	cost := t.chargeBlock(t.Block(idx), k, t.clock.Now())
	t.clock.Advance(cost)
	return cost
}

// AccessStrided charges the cost of reading values lo, lo+stride, ... up
// to (but excluding) hi, advancing the clock once — the span primitive
// for row-major slabs, where one attribute's cells sit a fixed stride
// apart. Stride <= 0 charges nothing.
func (t *Tracker) AccessStrided(lo, hi, stride int) time.Duration {
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

// chargeBlock records k value reads against block b at time now and
// returns their cost — the per-block equivalent of k Access calls,
// including the pathological case where the eviction policy drops the
// block immediately after warming (the no-caching strawman), which makes
// every further value in the block a fresh cold fetch.
func (t *Tracker) chargeBlock(b, k int, now time.Duration) time.Duration {
	cost := time.Duration(k) * t.params.WarmLatency
	if !t.warm.touch(b, now) {
		cost += t.params.ColdLatency
		t.warmBlock(b, now)
		t.stats.ColdFetches++
		t.stats.BytesRead += int64(t.params.BlockValues) * 8
		if _, still := t.warm.LastUse(b); still {
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
		t.stats.WarmHits += int64(k)
	}
	t.stats.ValuesRead += int64(k)
	t.policy.Touched(b, now, t.dir)
	return cost
}

// warmBlock marks b warm and evicts if over budget.
func (t *Tracker) warmBlock(b int, now time.Duration) {
	t.warm.Set(b, now)
	if t.params.WarmBudget > 0 && t.warm.Len() > t.params.WarmBudget {
		victim := t.policy.Victim(&t.warm)
		if _, ok := t.warm.LastUse(victim); !ok {
			// Defensive: a policy returning a non-warm block falls back
			// to oldest-first so eviction always makes progress.
			victim = oldestBlock(&t.warm)
		}
		t.warm.drop(victim)
		t.stats.Evictions++
	}
}

// PrefetchBlock warms the block containing idx without advancing the
// clock, consuming from budget instead. It returns the cost consumed
// (zero when the block was already warm or the budget is insufficient).
func (t *Tracker) PrefetchBlock(idx int, budget time.Duration) time.Duration {
	b := t.Block(idx)
	if _, ok := t.warm.LastUse(b); ok {
		return 0
	}
	if budget < t.params.ColdLatency {
		return 0
	}
	t.warmBlock(b, t.clock.Now())
	t.stats.Prefetched++
	t.stats.BytesRead += int64(t.params.BlockValues) * 8
	return t.params.ColdLatency
}

// PrefetchRange warms blocks covering values [lo, hi) front to back within
// budget. It returns the total cost consumed and the frontier: the first
// value index not yet processed when the budget ran out (>= hi when the
// whole range was covered).
func (t *Tracker) PrefetchRange(lo, hi int, budget time.Duration) (time.Duration, int) {
	if lo > hi {
		lo, hi = hi, lo
	}
	var used time.Duration
	b := t.Block(lo)
	for ; b <= t.Block(hi); b++ {
		if budget-used < t.params.ColdLatency && !t.IsWarm(b*t.params.BlockValues) {
			break
		}
		used += t.PrefetchBlock(b*t.params.BlockValues, budget-used)
	}
	return used, b * t.params.BlockValues
}

// WarmBlocks reports how many blocks are currently warm.
func (t *Tracker) WarmBlocks() int { return t.warm.Len() }

// Stats returns a snapshot of the counters.
func (t *Tracker) Stats() Stats { return t.stats }

// Cool drops all warm blocks, returning the store to a cold start.
func (t *Tracker) Cool() { t.warm.clear() }

// LRU is the default eviction policy: evict the least recently used block.
type LRU struct{}

// Touched implements EvictionPolicy (LRU keeps no extra state; recency
// lives in the tracker's warm set).
func (LRU) Touched(int, time.Duration, int) {}

// Victim returns the least recently used warm block, the lower block on
// a tie.
func (LRU) Victim(warm *WarmSet) int { return oldestBlock(warm) }

// Name implements EvictionPolicy.
func (LRU) Name() string { return "lru" }

func oldestBlock(warm *WarmSet) int {
	victim, oldest := -1, time.Duration(1<<62)
	for b, t := range warm.All() {
		if t < oldest || (t == oldest && b < victim) {
			victim, oldest = b, t
		}
	}
	return victim
}
