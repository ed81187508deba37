package storage

import (
	"math"
	"math/bits"
)

// ExactSum is an exact, order-free float64 accumulator: R. M. Neal's small
// superaccumulator ("Fast exact summation using small and large
// superaccumulators", arXiv:1505.05571). Every finite double is an
// integer multiple of 2^-1074 below 2^1024, so the accumulator keeps that
// integer in exponent-binned int64 chunks of 32 bits each: an Add splits
// the value's mantissa across the two chunks its exponent selects and
// adds the halves as integers. NaN, +Inf and -Inf are counted apart.
//
// Integer addition is associative, so any order of Add, AddInt and Merge
// reaches the same state, and Round reports the correctly rounded sum of
// everything added (ties to even): a running SUM that is identical
// whatever the chunking, lane split or slide direction that fed it. The
// zero value is an empty sum. ExactSum is a fixed-size value and never
// allocates.
type ExactSum struct {
	// chunk[i] holds multiples of 2^(32i-1074). Adds reach chunks 0..64;
	// the last chunk takes carries and, after a carry pass, the sign.
	chunk [sumChunks]int64
	// terms counts the adds since the last carry pass.
	terms int
	nf    nonFinite
}

const (
	sumChunks = 66
	// sumMaxTerms bounds the adds between carry passes: an add moves a
	// chunk by less than 2^52 and a carried chunk holds less than 2^32,
	// so 2047 adds keep every chunk inside int64.
	sumMaxTerms = 2047
	// 2^0 is bit 1074 of the accumulator: bit 18 of chunk 33.
	sumUnitChunk = 1074 / 32
	sumUnitShift = 1074 % 32
	sumLow       = 1<<32 - 1
)

// Add adds v exactly. Zeros of either sign add nothing.
func (s *ExactSum) Add(v float64) {
	b := math.Float64bits(v)
	e := uint(b>>52) & 0x7ff
	m := b & (1<<52 - 1)
	if e-1 >= 0x7fe { // zero, subnormal, NaN or infinite
		if e != 0 {
			s.nf.Count(v)
			return
		}
		if m == 0 {
			return
		}
		e = 1 // subnormal: the same weight as the smallest normal, no hidden bit
	} else {
		m |= 1 << 52
	}
	// v = m·2^(e-1075) = (m << (e-1)) units of 2^-1074, split at the
	// 32-bit chunk border; the sign applies to both halves (x^s - s
	// negates when s is all ones).
	sh := e - 1
	i, low := sh>>5&63, sh&31
	sign := int64(b) >> 63
	s.chunk[i] += (int64(m<<low&sumLow) ^ sign) - sign
	s.chunk[i+1] += (int64(m>>(32-low)) ^ sign) - sign
	if s.terms++; s.terms == sumMaxTerms {
		s.carry()
	}
}

// AddInt adds the integer v exactly.
func (s *ExactSum) AddInt(v int64) {
	u := uint64(v)
	if v < 0 {
		u = -u
	}
	c0 := int64(u << sumUnitShift & sumLow)
	c1 := int64(u >> (32 - sumUnitShift) & sumLow)
	c2 := int64(u >> (64 - sumUnitShift))
	if v < 0 {
		c0, c1, c2 = -c0, -c1, -c2
	}
	s.chunk[sumUnitChunk] += c0
	s.chunk[sumUnitChunk+1] += c1
	s.chunk[sumUnitChunk+2] += c2
	if s.terms++; s.terms == sumMaxTerms {
		s.carry()
	}
}

// Merge adds everything o holds; o is left as it was.
func (s *ExactSum) Merge(o *ExactSum) {
	s.carry()
	for i := range s.chunk {
		s.chunk[i] += o.chunk[i]
	}
	// s's carried chunks sit below 2^32, less than one add's worth.
	if s.terms = o.terms + 1; s.terms >= sumMaxTerms {
		s.carry()
	}
	s.nf.Merge(o.nf)
}

// pair reports the sum as hi+lo, two doubles whose exact sum it is: hi is
// the rounded sum and lo the rounded rest. ok is false when the rest does
// not fit one double, the sum overflows, or a NaN or infinity was added.
func (s *ExactSum) pair() (hi, lo float64, ok bool) {
	if s.nf.Any() {
		return 0, 0, false
	}
	if hi = s.Round(); math.IsInf(hi, 0) {
		return 0, 0, false
	}
	r := *s
	r.Add(-hi)
	lo = r.Round()
	r.Add(-lo)
	carryChunks(&r.chunk)
	return hi, lo, r.chunk == [sumChunks]int64{}
}

// carry brings every chunk but the last into [0, 2^32), pushing the rest
// upward; the value does not change.
func (s *ExactSum) carry() {
	carryChunks(&s.chunk)
	s.terms = 0
}

func carryChunks(c *[sumChunks]int64) {
	var carry int64
	for i := 0; i < sumChunks-1; i++ {
		x := c[i] + carry
		carry = x >> 32
		c[i] = x & sumLow
	}
	c[sumChunks-1] += carry
}

// Round reports the sum rounded once to the nearest float64, ties to even.
// Non-finite inputs decide it as IEEE addition would (see nonFinite.Apply),
// a finite sum past the float64 range overflows to ±Inf, and an exact zero
// is +0.
func (s *ExactSum) Round() float64 {
	if s.nf.Any() {
		return s.nf.Apply(0)
	}
	c := s.chunk
	carryChunks(&c)
	neg := c[sumChunks-1] < 0
	if neg {
		for i := range c {
			c[i] = -c[i]
		}
		carryChunks(&c)
	}
	if c[sumChunks-1] > sumLow {
		return signed(math.Inf(1), neg) // at least 2^1038
	}
	t := sumChunks - 1
	for t >= 0 && c[t] == 0 {
		t--
	}
	if t < 0 {
		return 0
	}
	width := 32*t + bits.Len64(uint64(c[t]))
	if width <= 53 {
		// Below 2^53 units every value is a float64 (t <= 1).
		u := uint64(c[0])
		if t == 1 {
			u |= uint64(c[1]) << 32
		}
		return signed(math.Ldexp(float64(u), -1074), neg)
	}
	// The top 54 bits: 53 of mantissa and the rounding bit, then whether
	// anything below them is set.
	pos := width - 54
	i, off := pos>>5, uint(pos&31)
	w := (limb(&c, i)>>off | limb(&c, i+1)<<(32-off) | limb(&c, i+2)<<(64-off)) & (1<<54 - 1)
	sticky := limb(&c, i)&(1<<off-1) != 0
	for j := 0; j < i && !sticky; j++ {
		sticky = c[j] != 0
	}
	m := w >> 1
	if w&1 != 0 && (sticky || m&1 != 0) {
		m++
	}
	return signed(math.Ldexp(float64(m), pos+1-1074), neg)
}

// limb reads carried chunk i as an unsigned 32-bit digit (0 outside the
// accumulator).
func limb(c *[sumChunks]int64, i int) uint64 {
	if i < 0 || i >= sumChunks {
		return 0
	}
	return uint64(c[i])
}

func signed(v float64, neg bool) float64 {
	if neg {
		return -v
	}
	return v
}

// nonFinite counts the NaN, +Inf and -Inf values a sum has seen — the
// part of a float sum that integers cannot hold. ExactSum keeps one.
type nonFinite struct {
	NaN, PosInf, NegInf int64
}

// Count counts v if it is NaN or infinite and reports whether it was.
func (c *nonFinite) Count(v float64) bool {
	switch {
	case v != v:
		c.NaN++
	case v > math.MaxFloat64:
		c.PosInf++
	case v < -math.MaxFloat64:
		c.NegInf++
	default:
		return false
	}
	return true
}

// Merge adds d's counts to c's.
func (c *nonFinite) Merge(d nonFinite) {
	c.NaN += d.NaN
	c.PosInf += d.PosInf
	c.NegInf += d.NegInf
}

// Any reports whether any non-finite value was counted.
func (c nonFinite) Any() bool { return c.NaN|c.PosInf|c.NegInf != 0 }

// Apply is the IEEE rule for a sum: finite plus the counted values is NaN
// when a NaN was counted or both infinities were, ±Inf when one infinity
// was, and finite when nothing was counted.
func (c nonFinite) Apply(finite float64) float64 {
	switch {
	case c.NaN > 0 || c.PosInf > 0 && c.NegInf > 0:
		return math.NaN()
	case c.PosInf > 0:
		return math.Inf(1)
	case c.NegInf > 0:
		return math.Inf(-1)
	}
	return finite
}
