package storage

// Test-only hooks for the external storage_test package.

// SetSIMD forces every SIMD dispatch flag on or off (on is clamped to
// SIMDAvailable) and returns a restore func.
var SetSIMD = setSIMD

// SIMDAvailable reports whether this build and host run the SIMD kernels.
var SIMDAvailable = simdAvailable

// CountFolds reports whether a fused COUNT of c under this predicate
// runs on the bitmap kernel: its pass table folds into one register.
func CountFolds(c *Column, op RangeOp, operand Value) bool {
	return c.preparePred(op, operand).masked
}
