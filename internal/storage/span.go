package storage

import "math"

// Span kernels: typed range operators over a column's native backing
// slices. They are the storage half of span-at-a-time slide execution —
// a slide gesture semantically covers a contiguous tuple range, so the
// hot path reads that range as one unit instead of round-tripping every
// cell through Value boxing. All kernels clamp their range to the column
// and iterate in ascending position order.
//
// Result contract against a scalar loop over the same positions:
// min/max are identical on any data; integer-backed columns (int, bool,
// string codes) accumulate sums in int64, and sums feed an exact
// accumulator (ExactSum), so a span's sum is the same whatever the order
// of its values.
//
// The inner loops are written for the Go compiler's strengths (see
// ARCHITECTURE.md "Kernel layer"): one slice expression hoists the bounds
// check out of the loop, integer min/max compile to conditional moves,
// multi-accumulator unrolling breaks the add dependency chain, and the
// filter kernels classify each element with branch-free mask arithmetic
// instead of a data-dependent branch.

// clampRange clips [lo, hi) to [0, Len()).
func (c *Column) clampRange(lo, hi int) (int, int) {
	if lo < 0 {
		lo = 0
	}
	if n := c.Len(); hi > n {
		hi = n
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// sumInt64Kernel is the dispatched int64 sum: the SIMD kernel when the
// build+host provides one and the span is long enough to amortize the
// vector setup, else the scalar reference. Both orders are bit-identical
// because wrapping int64 addition is associative.
func sumInt64Kernel(v []int64) int64 {
	if simdSum && len(v) >= simdMinSpan {
		return simdSumInt64(v)
	}
	return sumInt64(v)
}

// simdMinSpan is the span length below which kernels skip the SIMD path:
// shorter spans are dominated by broadcast/reduce setup and the scalar
// loop wins.
const simdMinSpan = 16

// sumInt64 sums an int64 slice with four accumulators, breaking the
// loop-carried dependency chain so independent adds overlap in the
// pipeline.
func sumInt64(v []int64) int64 {
	var s0, s1, s2, s3 int64
	for len(v) >= 4 {
		s0 += v[0]
		s1 += v[1]
		s2 += v[2]
		s3 += v[3]
		v = v[4:]
	}
	for _, x := range v {
		s0 += x
	}
	return s0 + s1 + s2 + s3
}

// sumBytes sums a byte slice (bool storage: 0/1 per element) with four
// widened accumulators.
func sumBytes(v []byte) int64 {
	var s0, s1, s2, s3 int64
	for len(v) >= 4 {
		s0 += int64(v[0])
		s1 += int64(v[1])
		s2 += int64(v[2])
		s3 += int64(v[3])
		v = v[4:]
	}
	for _, x := range v {
		s0 += int64(x)
	}
	return s0 + s1 + s2 + s3
}

// sumCodes sums an int32 slice widened to int64 with four accumulators.
func sumCodes(v []int32) int64 {
	var s0, s1, s2, s3 int64
	for len(v) >= 4 {
		s0 += int64(v[0])
		s1 += int64(v[1])
		s2 += int64(v[2])
		s3 += int64(v[3])
		v = v[4:]
	}
	for _, x := range v {
		s0 += int64(x)
	}
	return s0 + s1 + s2 + s3
}

// SumRangeInt64 sums values [lo, hi) of an integer-backed column exactly
// in int64 arithmetic (bool cells count 0/1, string cells their
// dictionary code; overflow wraps like any int64 addition). ok reports
// whether the column is integer-backed; float columns return ok == false
// and must use SumRange.
func (c *Column) SumRangeInt64(lo, hi int) (sum int64, n int, ok bool) {
	lo, hi = c.clampRange(lo, hi)
	c.countSpan(lo, hi)
	switch c.typ {
	case Int64:
		return sumInt64Kernel(c.ints[lo:hi]), hi - lo, true
	case Bool:
		return sumBytes(c.bools[lo:hi]), hi - lo, true
	case String:
		return sumCodes(c.codes[lo:hi]), hi - lo, true
	}
	return 0, 0, false
}

// SumRange adds the float coercion of values [lo, hi) to acc exactly and
// reports the count, without boxing. String cells coerce to their
// dictionary code (matching Column.Float). Integer-backed columns sum in
// int64 and join acc in one exact addition; float columns go through the
// fused SUM scan's windows with a predicate every value passes.
func (c *Column) SumRange(lo, hi int, acc *ExactSum) int {
	lo, hi = c.clampRange(lo, hi)
	if c.typ == Float64 {
		c.countSpan(lo, hi)
		var sc floatScan
		for cur := lo; cur < hi; cur += fusedBufLen {
			sc.sumWindow(c.flts[cur:min(cur+fusedBufLen, hi)], &allPass, acc)
		}
		return hi - lo
	}
	isum, n, ok := c.SumRangeInt64(lo, hi)
	if !ok {
		return 0
	}
	acc.AddInt(isum)
	return n
}

// MinMaxRange reports the minimum and maximum float coercion over
// [lo, hi) and the count. Empty ranges report (+Inf, -Inf, 0); NaN values
// are skipped, matching a scalar `if v < min` loop. Integer-backed
// columns compare natively — no per-element float conversion — with
// branch-free (conditional-move) inner loops; the single conversion
// happens once at the end.
func (c *Column) MinMaxRange(lo, hi int) (mn, mx float64, n int) {
	lo, hi = c.clampRange(lo, hi)
	if hi == lo {
		return math.Inf(1), math.Inf(-1), 0
	}
	c.countSpan(lo, hi)
	switch c.typ {
	case Int64:
		if simdMinMax && hi-lo >= simdMinSpan {
			lov, hiv := simdMinMaxInt64(c.ints[lo:hi])
			return float64(lov), float64(hiv), hi - lo
		}
		lov, hiv := int64(math.MaxInt64), int64(math.MinInt64)
		for _, v := range c.ints[lo:hi] {
			lov = min(lov, v)
			hiv = max(hiv, v)
		}
		return float64(lov), float64(hiv), hi - lo
	case Float64:
		if simdMinMax && hi-lo >= simdMinSpan {
			mn, mx = simdMinMaxFloat64(c.flts[lo:hi])
			return mn, mx, hi - lo
		}
		mn, mx = math.Inf(1), math.Inf(-1)
		for _, v := range c.flts[lo:hi] {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		return mn, mx, hi - lo
	case Bool:
		lov, hiv := byte(1), byte(0)
		for _, v := range c.bools[lo:hi] {
			lov = min(lov, v)
			hiv = max(hiv, v)
		}
		return float64(lov), float64(hiv), hi - lo
	case String:
		lov, hiv := int32(math.MaxInt32), int32(math.MinInt32)
		for _, v := range c.codes[lo:hi] {
			lov = min(lov, v)
			hiv = max(hiv, v)
		}
		return float64(lov), float64(hiv), hi - lo
	}
	return math.Inf(1), math.Inf(-1), 0
}

// AddRangeTo feeds the float coercion of values [lo, hi) in ascending
// order into add — the per-value span path for order-sensitive consumers
// (Welford variance) that still avoids Value boxing and per-call type
// switches.
func (c *Column) AddRangeTo(lo, hi int, add func(float64)) int {
	lo, hi = c.clampRange(lo, hi)
	c.countSpan(lo, hi)
	switch c.typ {
	case Int64:
		for _, v := range c.ints[lo:hi] {
			add(float64(v))
		}
	case Float64:
		for _, v := range c.flts[lo:hi] {
			add(v)
		}
	case Bool:
		for _, v := range c.bools[lo:hi] {
			add(float64(v))
		}
	case String:
		for _, v := range c.codes[lo:hi] {
			add(float64(v))
		}
	}
	return hi - lo
}

// RangeOp is a comparison operator for FilterRange, mirroring
// operator.CmpOp (which converts to it) so the storage layer needs no
// operator import.
type RangeOp uint8

// Filter comparison operators.
const (
	RangeEq RangeOp = iota
	RangeNe
	RangeLt
	RangeLe
	RangeGt
	RangeGe
)

// applyCmp interprets a three-way comparison result under op.
func (op RangeOp) applyCmp(c int) bool {
	switch op {
	case RangeEq:
		return c == 0
	case RangeNe:
		return c != 0
	case RangeLt:
		return c < 0
	case RangeLe:
		return c <= 0
	case RangeGt:
		return c > 0
	case RangeGe:
		return c >= 0
	default:
		return false
	}
}

// wants decomposes op into pass masks over the three-way float comparison
// outcome, hoisting the operator dispatch out of the inner loops: an
// element passes iff lt·wLt | gt·wGt | eqish·wEq, where eqish means
// neither ordered test held. This reproduces Value.Compare's numeric
// semantics exactly — NaN fails both ordered tests and therefore counts
// as "equal-ish", passing Eq/Le/Ge, the way Compare's default branch
// does.
func (op RangeOp) wants() (wLt, wGt, wEq int) {
	switch op {
	case RangeEq:
		return 0, 0, 1
	case RangeNe:
		return 1, 1, 0
	case RangeLt:
		return 1, 0, 0
	case RangeLe:
		return 1, 0, 1
	case RangeGt:
		return 0, 1, 0
	case RangeGe:
		return 0, 1, 1
	default:
		return 0, 0, 0
	}
}

// b2i converts a comparison outcome to 0/1 without a branch (the compiler
// lowers the inlined form to SETcc).
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// passFloat reports (as 0/1) whether `a op b` holds under the
// pre-decomposed wants masks — the branch-free predicate evaluated once
// per element by the float-column filter kernels.
func passFloat(a, b float64, wLt, wGt, wEq int) int {
	lt := b2i(a < b)
	gt := b2i(a > b)
	return lt&wLt | gt&wGt | (1^(lt|gt))&wEq
}

// intPred is an integer-interval predicate exactly equivalent to a float
// comparison over an int64 column: pass ⇔ (lo <= v && v <= hi) ^ neg.
// The int64→float64 conversion is monotone (non-strictly), so the pass
// set of `float64(v) op b` is always an interval of int64 (or its
// complement, for Ne); lowering the comparison to integer bounds removes
// the per-element CVTSI2SD and float compare from the inner loops while
// reproducing Value.Compare's float semantics bit for bit — including
// values beyond 2^53, where the conversion rounds.
type intPred struct {
	lo, hi int64
	// neg is 0, or 1 to complement the interval (RangeNe).
	neg int
}

// test reports (as 0/1) whether v passes — two integer compares, no
// branches.
func (p intPred) test(v int64) int {
	return (b2i(v >= p.lo) & b2i(v <= p.hi)) ^ p.neg
}

// maxIntWhere returns the largest int64 satisfying pred, which must be
// downward closed (pred(v) ⇒ pred(w) for all w < v); ok is false when no
// value satisfies it. Binary search in the order-preserving unsigned
// domain: ~64 float compares once per kernel call.
func maxIntWhere(pred func(int64) bool) (t int64, ok bool) {
	lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
	if !pred(lo) {
		return 0, false
	}
	if pred(hi) {
		return hi, true
	}
	// Invariant: pred(lo) && !pred(hi).
	for {
		ulo, uhi := uint64(lo)^(1<<63), uint64(hi)^(1<<63)
		if uhi-ulo <= 1 {
			return lo, true
		}
		mid := int64((ulo + (uhi-ulo)/2) ^ (1 << 63))
		if pred(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
}

// intPredFor lowers `float64(v) op b` to an integer predicate, with
// constant outcomes reported separately (none/all) so inner loops can
// skip the test — or the whole scan — entirely. NaN operands follow
// Value.Compare's default branch: every value is "equal-ish", so Eq, Le
// and Ge pass everything and Lt, Gt, Ne pass nothing.
func intPredFor(op RangeOp, b float64) (p intPred, none, all bool) {
	// tLt: largest v with float64(v) < b; tLe: largest v with
	// !(float64(v) > b) — both pass sets are downward closed.
	tLt, okLt := maxIntWhere(func(v int64) bool { return float64(v) < b })
	tLe, okLe := maxIntWhere(func(v int64) bool { return !(float64(v) > b) })
	const minI, maxI = int64(math.MinInt64), int64(math.MaxInt64)
	// The always-false predicate keeps test() correct even for callers
	// that only consult the test and skip the none flag.
	never := intPred{lo: 0, hi: -1}
	interval := func(lo, hi int64) (intPred, bool, bool) {
		if lo > hi {
			return never, true, false
		}
		return intPred{lo: lo, hi: hi}, false, lo == minI && hi == maxI
	}
	switch op {
	case RangeLt:
		if !okLt {
			return never, true, false
		}
		return interval(minI, tLt)
	case RangeLe:
		if !okLe {
			return never, true, false
		}
		return interval(minI, tLe)
	case RangeGt:
		if !okLe {
			return intPred{lo: minI, hi: maxI}, false, true
		}
		if tLe == maxI {
			return never, true, false
		}
		return interval(tLe+1, maxI)
	case RangeGe:
		if !okLt {
			return intPred{lo: minI, hi: maxI}, false, true
		}
		if tLt == maxI {
			return never, true, false
		}
		return interval(tLt+1, maxI)
	case RangeEq, RangeNe:
		lo := minI
		if okLt {
			if tLt == maxI {
				lo = 0
				tLe = -1 // force the empty interval below
			} else {
				lo = tLt + 1
			}
		}
		hi := tLe
		if !okLe {
			lo, hi = 0, -1
		}
		p, none, all := interval(lo, hi)
		if op == RangeNe {
			// Complement: constant outcomes swap, a genuine interval
			// negates. The constant cases rebuild p so it stays usable
			// by callers that only consult the test.
			switch {
			case none:
				return intPred{lo: minI, hi: maxI}, false, true
			case all:
				return never, true, false
			default:
				p.neg = 1
				return p, false, false
			}
		}
		return p, none, all
	default:
		return never, true, false
	}
}

// selGrow extends sel with n writable scratch slots and returns the
// (possibly reallocated) slice plus the scratch window. The filter
// kernels write candidates unconditionally into the window and advance
// the cursor by the 0/1 pass mask, so qualifying positions compact to the
// front without a data-dependent branch.
func selGrow(sel []int32, n int) ([]int32, []int32) {
	need := len(sel) + n
	if cap(sel) < need {
		grown := make([]int32, len(sel), need)
		copy(grown, sel)
		sel = grown
	}
	return sel, sel[len(sel):need]
}

// FilterRange appends to sel the positions in [lo, hi) whose value
// satisfies `value op operand` under Value.Compare semantics, and returns
// the extended selection vector. Numeric and mixed comparisons coerce
// both sides to float64 exactly as Value.Compare does; string columns
// compared against a string operand compare lexicographically, with the
// per-distinct-code outcome memoized so the scan never re-compares a
// repeated string. The inner loops are branch-free: every candidate
// position is written, and the output cursor advances only on a pass.
func (c *Column) FilterRange(lo, hi int, op RangeOp, operand Value, sel []int32) []int32 {
	lo, hi = c.clampRange(lo, hi)
	if hi == lo {
		return sel
	}
	c.countSpan(lo, hi)
	if c.typ == String {
		// String and numeric operands both go through the memoized
		// per-code outcome table (numeric operands coerce each distinct
		// string once, as Value.Compare parses the string side).
		pass := c.passByCode(op, operand)
		sel, buf := selGrow(sel, hi-lo)
		j := 0
		for i, code := range c.codes[lo:hi] {
			buf[j] = int32(lo + i)
			j += b2i(pass[code])
		}
		return sel[:len(sel)+j]
	}
	b := operand.AsFloat()
	wLt, wGt, wEq := op.wants()
	sel, buf := selGrow(sel, hi-lo)
	j := 0
	switch c.typ {
	case Int64:
		p, none, all := intPredFor(op, b)
		switch {
		case none:
		case all:
			for i := lo; i < hi; i++ {
				buf[j] = int32(i)
				j++
			}
		default:
			if simdCompress && hi-lo >= simdMinSpan {
				j = simdCompressInt64(c.ints[lo:hi], p, lo, buf)
				break
			}
			for i, v := range c.ints[lo:hi] {
				buf[j] = int32(lo + i)
				j += p.test(v)
			}
		}
	case Float64:
		j = compressFloat64(c.flts[lo:hi], b, wLt, wGt, wEq, lo, buf)
	case Bool:
		var tab [2]int
		tab[0] = passFloat(0, b, wLt, wGt, wEq)
		tab[1] = passFloat(1, b, wLt, wGt, wEq)
		for i, v := range c.bools[lo:hi] {
			buf[j] = int32(lo + i)
			j += tab[v&1]
		}
	}
	return sel[:len(sel)+j]
}

// compressFloat64 writes to buf the positions base+i whose v[i] passes
// the decomposed float comparison, ascending, and returns how many it
// wrote — FilterRange's float inner loop, shared with the fused float
// scans. buf needs room for len(v) entries: every candidate is stored and
// the cursor advances only on a pass.
func compressFloat64(v []float64, b float64, wLt, wGt, wEq int, base int, buf []int32) int {
	if simdCompress && len(v) >= simdMinSpan {
		return simdCompressFloat64(v, b, wLt, wGt, wEq, base, buf)
	}
	j := 0
	for i, x := range v {
		buf[j] = int32(base + i)
		j += passFloat(x, b, wLt, wGt, wEq)
	}
	return j
}

// FilterSel appends to out the positions from sel whose value satisfies
// `value op operand` — the conjunct-refinement kernel (evaluate the next
// WHERE conjunct only on survivors of the previous ones). Same branch-free
// compaction as FilterRange.
func (c *Column) FilterSel(sel []int32, op RangeOp, operand Value, out []int32) []int32 {
	n := c.Len()
	if len(sel) == 0 {
		return out
	}
	c.countSel(len(sel))
	if c.typ == String {
		pass := c.passByCode(op, operand)
		out, buf := selGrow(out, len(sel))
		j := 0
		for _, p := range sel {
			if p < 0 || int(p) >= n {
				continue
			}
			buf[j] = p
			j += b2i(pass[c.codes[p]])
		}
		return out[:len(out)+j]
	}
	b := operand.AsFloat()
	wLt, wGt, wEq := op.wants()
	out, buf := selGrow(out, len(sel))
	j := 0
	switch c.typ {
	case Int64:
		ip, none, _ := intPredFor(op, b)
		if none {
			return out
		}
		for _, p := range sel {
			if p < 0 || int(p) >= n {
				continue
			}
			buf[j] = p
			j += ip.test(c.ints[p])
		}
	case Float64:
		for _, p := range sel {
			if p < 0 || int(p) >= n {
				continue
			}
			buf[j] = p
			j += passFloat(c.flts[p], b, wLt, wGt, wEq)
		}
	case Bool:
		var tab [2]int
		tab[0] = passFloat(0, b, wLt, wGt, wEq)
		tab[1] = passFloat(1, b, wLt, wGt, wEq)
		for _, p := range sel {
			if p < 0 || int(p) >= n {
				continue
			}
			buf[j] = p
			j += tab[c.bools[p]&1]
		}
	}
	return out[:len(out)+j]
}

// passKey identifies one memoized predicate-outcome table.
type passKey struct {
	op      RangeOp
	operand Value
}

// maxPassTables caps the per-column predicate memo. Columns are shared
// and live as long as the process, so without a cap every distinct
// (op, operand) a long-running session — or a stream of remote clients —
// ever filters with would pin an O(|dict|) table forever. At the cap the
// least-recently-used table is evicted: tables are pure memos and rebuild
// on demand, so eviction never changes results, and LRU keeps the hot
// conjuncts of active gestures cached through storms of one-off
// predicates.
const maxPassTables = 64

// passByCode evaluates the predicate once per distinct dictionary code of
// a string column, so the range scan is a table lookup per cell. Tables
// are memoized per (op, operand) on the column — WHERE conjuncts repeat
// across the touches of a gesture, and recomputing O(|dict|) outcomes per
// touch would dwarf the span scan itself. A table built before new
// strings were interned is extended lazily for the missing codes.
//
// The cache is mutex-guarded because sessions share loaded columns; the
// returned slice is safe to read outside the lock (entries are written
// once, before the slice is published, and extension builds on top of the
// published prefix without rewriting it).
func (c *Column) passByCode(op RangeOp, operand Value) []bool {
	n := c.dict.Len()
	if operand.Type == Float64 && math.IsNaN(operand.F) {
		// NaN never equals itself as a map key; keep it out of the cache.
		return c.extendPass(op, operand, nil, n)
	}
	key := passKey{op: op, operand: operand}
	c.passMu.Lock()
	defer c.passMu.Unlock()
	if pass, ok := c.passCache[key]; ok && len(pass) >= n {
		c.touchPass(key)
		return pass
	}
	pass := c.extendPass(op, operand, c.passCache[key], n)
	if c.passCache == nil {
		c.passCache = make(map[passKey][]bool)
		c.passUse = make(map[passKey]uint64)
	}
	if _, exists := c.passCache[key]; !exists && len(c.passCache) >= maxPassTables {
		var victim passKey
		oldest := uint64(math.MaxUint64)
		for k := range c.passCache {
			if u := c.passUse[k]; u < oldest {
				oldest, victim = u, k
			}
		}
		delete(c.passCache, victim)
		delete(c.passUse, victim)
	}
	c.passCache[key] = pass
	c.touchPass(key)
	return pass
}

// touchPass stamps key as most recently used. Callers hold passMu.
func (c *Column) touchPass(key passKey) {
	c.passTick++
	c.passUse[key] = c.passTick
}

// extendPass appends outcomes for dictionary codes [len(pass), n).
func (c *Column) extendPass(op RangeOp, operand Value, pass []bool, n int) []bool {
	for code := len(pass); code < n; code++ {
		v := StringValue(c.dict.Lookup(int32(code)))
		pass = append(pass, op.applyCmp(v.Compare(operand)))
	}
	return pass
}
