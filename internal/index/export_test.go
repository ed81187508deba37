package index

// Builds reports how many lazy builds have run.
func (r *Registry) Builds() int { return r.builds }
