// Package app calls into lib.
package app

import "fixture/internal/lib"

// Describe calls Name through the interface.
func Describe(n lib.Namer) string { return n.Name() }

// Count calls Used.
func Count() int { return lib.Used() }

var _ lib.Namer = lib.Thing{}
