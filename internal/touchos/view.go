package touchos

import (
	"fmt"
	"sync/atomic"
)

// QuarterTurns counts 90° rotations applied to a view. The paper's rotate
// gesture (§2.8) rotates a data object by a quarter turn, flipping its
// physical layout; rotation changes only the view transform, so touches
// and identifiers calculated relative to the object view are unaffected.
type QuarterTurns int

// Normalized returns the rotation folded into [0, 3].
func (q QuarterTurns) Normalized() QuarterTurns {
	r := int(q) % 4
	if r < 0 {
		r += 4
	}
	return QuarterTurns(r)
}

// Horizontal reports whether the rotation leaves the view lying sideways
// (long axis horizontal when it started vertical).
func (q QuarterTurns) Horizontal() bool {
	n := q.Normalized()
	return n == 1 || n == 3
}

// View is a placeholder for a visual object, arranged in a master-view
// hierarchy exactly as in modern touch operating systems.
type View struct {
	id       int
	name     string
	frame    Rect // in parent coordinates
	rotation QuarterTurns
	parent   *View
	// children are in stacking order, bottom first: AddChild appends on
	// top and RemoveChild keeps the order of the rest, so the slice order
	// is the z-order and hit testing walks it back to front.
	children []*View
}

// nextViewID is atomic: views are created from every session's
// goroutine (kernel construction, object placement), and ids only need
// to be unique, not dense.
var nextViewID atomic.Int64

// NewScreen creates a root view of the given size, representing the
// device screen.
func NewScreen(w, h float64) *View {
	return NewView("screen", NewRect(0, 0, w, h))
}

// NewView creates a detached view with the given frame.
func NewView(name string, frame Rect) *View {
	return &View{id: int(nextViewID.Add(1)), name: name, frame: frame}
}

// ID returns the unique view identifier.
func (v *View) ID() int { return v.id }

// Name returns the view's debug name.
func (v *View) Name() string { return v.name }

// Frame returns the view's rectangle in parent coordinates.
func (v *View) Frame() Rect { return v.frame }

// SetFrame moves/resizes the view.
func (v *View) SetFrame(r Rect) { v.frame = r }

// Rotation returns the accumulated quarter turns.
func (v *View) Rotation() QuarterTurns { return v.rotation }

// Rotate adds quarter turns to the view's transform.
func (v *View) Rotate(turns QuarterTurns) { v.rotation = (v.rotation + turns).Normalized() }

// Parent returns the master view, or nil for the root.
func (v *View) Parent() *View { return v.parent }

// AddChild places child into v's hierarchy on top of existing children.
func (v *View) AddChild(child *View) error {
	if child == v {
		return fmt.Errorf("touchos: view %q cannot be its own child", v.name)
	}
	for p := v; p != nil; p = p.parent {
		if p == child {
			return fmt.Errorf("touchos: adding %q under %q would create a cycle", child.name, v.name)
		}
	}
	if child.parent != nil {
		child.parent.RemoveChild(child)
	}
	child.parent = v
	v.children = append(v.children, child)
	return nil
}

// RemoveChild detaches child from v.
func (v *View) RemoveChild(child *View) {
	for i, c := range v.children {
		if c == child {
			v.children = append(v.children[:i], v.children[i+1:]...)
			child.parent = nil
			return
		}
	}
}

// ToLocal converts a point from parent coordinates into v's rotated local
// coordinate system. Local coordinates always have Y running along the
// view's own height axis, so tuple mapping is rotation independent
// (paper §2.4: "touches and identifiers calculated relative to the object
// view are not affected" by rotation).
func (v *View) ToLocal(p Point) Point {
	rel := p.Sub(v.frame.Origin)
	switch v.rotation.Normalized() {
	case 1: // 90° clockwise: local Y runs along parent X
		return Point{X: rel.Y, Y: v.frame.Size.W - rel.X}
	case 2:
		return Point{X: v.frame.Size.W - rel.X, Y: v.frame.Size.H - rel.Y}
	case 3:
		return Point{X: v.frame.Size.H - rel.Y, Y: rel.X}
	default:
		return rel
	}
}

// LocalSize returns the view extent in its rotated local coordinates:
// after an odd number of quarter turns, width and height swap.
func (v *View) LocalSize() Size {
	if v.rotation.Horizontal() {
		return Size{W: v.frame.Size.H, H: v.frame.Size.W}
	}
	return v.frame.Size
}

// HitTest finds the topmost descendant whose frame contains p
// (p in v's parent coordinates, as delivered by the digitizer for the
// root view). It returns nil when the point misses v entirely.
func (v *View) HitTest(p Point) *View {
	if !v.frame.Contains(p) {
		return nil
	}
	inner := p.Sub(v.frame.Origin)
	for i := len(v.children) - 1; i >= 0; i-- {
		if hit := v.children[i].HitTest(inner); hit != nil {
			return hit
		}
	}
	return v
}

// ScreenOrigin returns the view's origin in root coordinates.
func (v *View) ScreenOrigin() Point {
	o := v.frame.Origin
	for p := v.parent; p != nil; p = p.parent {
		o = o.Add(p.frame.Origin)
	}
	return o
}

// FromScreen converts a root-coordinate point into v's local coordinates,
// walking the parent chain and applying v's rotation.
func (v *View) FromScreen(p Point) Point {
	if v.parent != nil {
		p = p.Sub(v.parent.ScreenOrigin())
	}
	return v.ToLocal(p)
}
