package prefetch

// Velocity reports the smoothed tuple velocity (tuples/second, signed by
// direction).
func (e *Extrapolator) Velocity() float64 { return e.velocity }

// Stats returns a snapshot of prefetch activity.
func (p *Prefetcher) Stats() Stats { return p.stats }
