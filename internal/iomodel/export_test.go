package iomodel

// ResetStats zeroes the counters, keeping warmth state.
func (t *Tracker) ResetStats() { t.stats = Stats{} }
