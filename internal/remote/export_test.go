package remote

import "time"

// ReadRange serves a dense window read at a level, returning the values,
// the base ids they represent, and the server time consumed.
func (s *Server) ReadRange(lo, hi, level int) (values []float64, ids []int, cost time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := s.clock.Now()
	l, err := s.hierarchy.Level(level)
	if err != nil {
		return nil, nil, 0
	}
	from, to := lo/l.Stride, (hi+l.Stride-1)/l.Stride
	if from < 0 {
		from = 0
	}
	if to > l.Col.Len() {
		to = l.Col.Len()
	}
	for i := from; i < to; i++ {
		l.Tracker.Access(i)
		values = append(values, l.Col.Float(i))
		ids = append(ids, i*l.Stride)
	}
	return values, ids, s.clock.Now() - start
}

// InFlight reports refinements still traveling.
func (d *Device) InFlight() int { return len(d.inFlight) }
