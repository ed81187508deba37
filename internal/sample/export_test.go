package sample

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
