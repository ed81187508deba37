package baseline

// Queries reports how many statements have executed.
func (e *Engine) Queries() int64 { return e.queries }
