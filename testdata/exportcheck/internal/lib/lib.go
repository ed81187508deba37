// Package lib holds one export of each kind the export checker judges.
package lib

// Namer is an interface app calls through.
type Namer interface{ Name() string }

// Thing satisfies Namer.
type Thing struct{}

// Name implements Namer; no code calls it on a Thing directly.
func (Thing) Name() string { return "thing" }

// Used is called from app.
func Used() int { return 0 }

// Unused has no caller: the checker flags it.
func Unused() int { return Unused() + 1 }

// Arm64Only is called only from a file that builds on arm64.
func Arm64Only() int { return 2 }

// Allowed has no caller and is allowlisted.
func Allowed() int { return 3 }

// Config holds one exported field of each kind the field check judges.
type Config struct {
	Assigned  int // set by assignment in app
	Addressed int // set through a pointer to it in app
	Keyed     int // set in a keyed literal in app
	Arm64Set  int // set only in a file that builds on arm64
	Decoded   int `json:"decoded"` // a decoder sets it
	ReadOnly  int // read, never set: the checker flags it
}
