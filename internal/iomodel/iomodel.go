// Package iomodel charges virtual time for data access, simulating the
// storage hierarchy the dbTouch prototype ran on (paper §2.6 "Storing and
// Accessing Data"). Data lives in blocks; the first touch of a block is a
// cold fetch with block latency, later touches are warm per-value reads.
// A warm-block budget models limited fast memory, and pluggable eviction
// policies let the caching experiments (§2.6 "Caching Data") compare
// gesture-aware policies against plain LRU.
//
// A tracker charges a run of blocks in one loop: AccessRange for a
// contiguous span, AccessCounts for per-block read counts (what a fused
// filter+aggregate scan reports), AccessStrided for a row-major slab's
// column. Charging a warm block is a slot write in its WarmSet; the
// tracker keeps the gesture frontier — the last block it charged and the
// last direction it charged with — and hands it to the eviction policy
// only when the budget forces a victim.
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
	// Victim picks the block to evict from the warm set, which holds
	// each warm block's last access time, given the tracker's gesture
	// frontier: last, the last block whose charge completed (-1 before
	// the first), and dir, the last non-zero direction a charge moved in
	// (-1 backward, +1 forward, 0 before any). A policy that leaves a
	// choice open must break it by block number, never by iteration
	// order.
	Victim(warm *WarmSet, last, dir int) int
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
	// dir is the direction the next charge records in the frontier:
	// SetDirection's, or the frontier's own when that is unknown.
	dir int
	// last and lastDir are the gesture frontier Victim receives: the
	// last charged block and the last non-zero direction it was charged
	// with.
	last, lastDir int
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
		last:   -1,
	}
}

// Params returns the tracker's cost parameters.
func (t *Tracker) Params() Params { return t.params }

// SetDirection records the current gesture movement direction (-1
// backward, 0 unknown, +1 forward), which the charges that follow move
// the frontier in. An unknown direction keeps the frontier's last one.
func (t *Tracker) SetDirection(dir int) {
	if dir == 0 {
		dir = t.lastDir
	}
	t.dir = dir
}

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
	cost := t.chargeBlock(t.Block(idx), 1, t.clock.Now())
	t.clock.Advance(cost)
	return cost
}

// AccessRange charges the cost of reading values [lo, hi), advances the
// clock, and returns the total charged duration. Costs, stats, and warm
// state evolve exactly as a per-value Access loop over the same indices
// would, but the bookkeeping runs once per touched block rather than once
// per value — the iomodel half of span-at-a-time execution. Block numbers
// are Block's (division truncating toward zero): left of zero a block's
// clamped count can be zero or negative, and is charged as it stands.
func (t *Tracker) AccessRange(lo, hi int) time.Duration {
	if hi <= lo {
		return 0
	}
	now := t.clock.Now()
	bv := t.params.BlockValues
	var total time.Duration
	b, last := lo/bv, (hi-1)/bv
	for first := b * bv; b <= last; b, first = b+1, first+bv {
		k := min(first+bv, hi) - max(first, lo)
		if t.chargeWarm(b, k, now) {
			total += time.Duration(k) * t.params.WarmLatency
		} else {
			total += t.chargeSlow(b, k, now)
		}
	}
	t.clock.Advance(total)
	return total
}

// AccessCounts charges counts[i] value reads against block b0+i, in
// order, and advances the clock once by their total, which it returns.
// Each block is charged at the virtual time the blocks before it left
// the clock at, so costs, stats and warm state evolve as one
// single-block charge per count would; a count <= 0 charges nothing. It
// is the charging primitive of fused filter+aggregate scans, which know
// how many values qualified inside each cost-model block without ever
// materializing their positions.
func (t *Tracker) AccessCounts(b0 int, counts []int32) time.Duration {
	start := t.clock.Now()
	now := start
	for i, k := range counts {
		switch b := b0 + i; {
		case k <= 0:
		case t.chargeWarm(b, int(k), now):
			now += time.Duration(k) * t.params.WarmLatency
		default:
			now += t.chargeSlow(b, int(k), now)
		}
	}
	t.clock.Advance(now - start)
	return now - start
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
// returns their cost — the per-block equivalent of k Access calls.
func (t *Tracker) chargeBlock(b, k int, now time.Duration) time.Duration {
	if t.chargeWarm(b, k, now) {
		return time.Duration(k) * t.params.WarmLatency
	}
	return t.chargeSlow(b, k, now)
}

// chargeWarm is chargeBlock's hot path, small enough for the charging
// loops to inline: a warm block on an allocated page — what a repeated
// slide charges for almost every block — is a slot write. For any other
// block it charges nothing and reports false.
func (t *Tracker) chargeWarm(b, k int, now time.Duration) bool {
	s := t.warm.hotSlot(b)
	if *s == 0 {
		return false
	}
	*s = now + 1
	t.stats.WarmHits += int64(k)
	t.stats.ValuesRead += int64(k)
	t.last, t.lastDir = b, t.dir
	return true
}

// chargeSlow is chargeBlock for any block: a warm one left of zero, or a
// cold one — including the pathological case where the eviction policy
// drops the block immediately after warming (the no-caching strawman),
// which makes every further value in the block a fresh cold fetch.
func (t *Tracker) chargeSlow(b, k int, now time.Duration) time.Duration {
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
	// The frontier moves to b only now: a victim picked while b warmed
	// saw the block charged before it.
	t.last, t.lastDir = b, t.dir
	return cost
}

// warmBlock marks b warm and evicts if over budget.
func (t *Tracker) warmBlock(b int, now time.Duration) {
	t.warm.Set(b, now)
	if t.params.WarmBudget > 0 && t.warm.Len() > t.params.WarmBudget {
		victim := t.policy.Victim(&t.warm, t.last, t.lastDir)
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

// Victim returns the least recently used warm block, the lower block on
// a tie.
func (LRU) Victim(warm *WarmSet, _, _ int) int { return oldestBlock(warm) }

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
