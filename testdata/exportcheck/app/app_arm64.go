//go:build arm64

package app

import "fixture/internal/lib"

// Arm64 calls the function nothing else calls.
func Arm64() int { return lib.Arm64Only() }

// ConfigureArm64 sets the field nothing else sets.
func ConfigureArm64(c *lib.Config) { c.Arm64Set = 4 }
