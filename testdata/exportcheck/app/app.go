// Package app calls into lib.
package app

import "fixture/internal/lib"

// Describe calls Name through the interface.
func Describe(n lib.Namer) string { return n.Name() }

// Count calls Used.
func Count() int { return lib.Used() }

var _ lib.Namer = lib.Thing{}

// Configure sets Config's fields each way the field check counts.
func Configure() lib.Config {
	c := lib.Config{Keyed: 1}
	c.Assigned = 2
	set(&c.Addressed)
	return c
}

func set(p *int) { *p = 3 }

// Read reads the field nothing sets.
func Read(c lib.Config) int { return c.ReadOnly + c.Decoded }
