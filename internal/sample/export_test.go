package sample

import "math"

// NumLevels reports the number of stored levels including base.
func (s *Shared) NumLevels() int { return len(s.levels) }

// BaseLen reports how many base tuples the level spans.
func (l *Level) BaseLen() int { return l.Col.Len() * l.Stride }

// Cool drops warmth on every level (cold-start for experiments).
func (h *Hierarchy) Cool() {
	for _, l := range h.levels {
		l.Tracker.Cool()
	}
}

// Built reports whether level i's values have been copied yet. Call it
// only once the sessions reading the Shared are done.
func (s *Shared) Built(i int) bool { return s.levels[i].col != nil }

// WindowAgg is SpanAgg's per-entry reference: it aggregates the sample
// entries of level covering base range [lo, hi), charging per entry, and
// returns (sum, count, min, max).
func (h *Hierarchy) WindowAgg(lo, hi, level int) (sum float64, n int, min, max float64, err error) {
	l, err := h.Level(level)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	from := lo / l.Stride
	to := (hi + l.Stride - 1) / l.Stride
	if from < 0 {
		from = 0
	}
	if to > l.Col.Len() {
		to = l.Col.Len()
	}
	min, max = math.Inf(1), math.Inf(-1)
	for i := from; i < to; i++ {
		l.Tracker.Access(i)
		v := l.Col.Float(i)
		sum += v
		n++
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return sum, n, min, max, nil
}
