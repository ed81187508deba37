package metrics

// Reset clears the histogram.
func (h *Histogram) Reset() { *h = Histogram{} }
