// Package mapping translates touch locations into tuple identifiers — the
// key step of a dbTouch system (paper §2.4 "From Touch to Tuple
// Identifiers"). The translation is the Rule of Three: with touch location
// t, object size o, and n total tuples, the identifier is id = n·t/o.
//
// The package also models touch granularity (§2.5): a visual object of a
// few centimeters can only register a bounded number of distinct touch
// positions, so each object size admits a bounded number of addressable
// tuples; zooming in raises that bound.
package mapping

import (
	"errors"

	"dbtouch/internal/touchos"
)

// TouchResolutionPerCm is the number of distinct touch positions the
// digitizer resolves per centimeter. Capacitive panels resolve finger
// centroids far more finely than a finger is wide; the effective limit for
// deliberate pointing is around 20 positions/cm.
const TouchResolutionPerCm = 20.0

// ErrEmptyObject reports a mapping against an object with no tuples.
var ErrEmptyObject = errors.New("mapping: data object has no tuples")

// ErrDegenerateView reports a view with zero extent along the mapped axis.
var ErrDegenerateView = errors.New("mapping: view has zero size along the data axis")

// ObjectMap translates local touch coordinates on one data-object view to
// tuple/attribute identifiers.
type ObjectMap struct {
	// Rows is the tuple count of the underlying matrix.
	Rows int
	// Cols is the attribute count (1 for a single-column object).
	Cols int
	// Granularity coarsens addressing: ids snap to multiples of
	// Granularity. 1 (or 0) means full resolution. The paper lets users
	// vary "how many tuples correspond to each touch" on demand.
	Granularity int
	// ResolutionPerCm overrides the digitizer pointing resolution; zero
	// selects TouchResolutionPerCm.
	ResolutionPerCm float64
}

func (m ObjectMap) resolution() float64 {
	if m.ResolutionPerCm > 0 {
		return m.ResolutionPerCm
	}
	return TouchResolutionPerCm
}

// Positions reports how many distinct touch positions the object registers
// along an axis of the given extent — the physical bound on addressable
// tuples for that object size (paper §2.5 "Touching Samples").
func (m ObjectMap) Positions(extent float64) int {
	p := int(extent * m.resolution())
	if p < 1 {
		p = 1
	}
	return p
}

// RowAt maps a local Y coordinate within a view of the given local size to
// a tuple identifier. The location is first quantized to the digitizer's
// position grid, then mapped by the Rule of Three, then snapped to the
// granularity grid.
func (m ObjectMap) RowAt(local touchos.Point, size touchos.Size) (int, error) {
	if m.Rows <= 0 {
		return 0, ErrEmptyObject
	}
	if size.H <= 0 {
		return 0, ErrDegenerateView
	}
	positions := m.Positions(size.H)
	// Quantize to the digitizer grid.
	p := int(local.Y / size.H * float64(positions))
	if p < 0 {
		p = 0
	}
	if p >= positions {
		p = positions - 1
	}
	// Rule of Three over the quantized grid.
	id := int(float64(m.Rows) * (float64(p) + 0.5) / float64(positions))
	if id >= m.Rows {
		id = m.Rows - 1
	}
	if g := m.Granularity; g > 1 {
		id = (id / g) * g
	}
	return id, nil
}

// ColAt maps a local X coordinate to an attribute index for table objects:
// "the tuple identifier is determined via the height, while the attribute
// seen is determined by the relative width of the touch location" (§2.4).
func (m ObjectMap) ColAt(local touchos.Point, size touchos.Size) (int, error) {
	if m.Cols <= 0 {
		return 0, ErrEmptyObject
	}
	if size.W <= 0 {
		return 0, ErrDegenerateView
	}
	c := int(local.X / size.W * float64(m.Cols))
	if c < 0 {
		c = 0
	}
	if c >= m.Cols {
		c = m.Cols - 1
	}
	return c, nil
}

// Cell maps a local point to (row, col) for 2-D table objects.
func (m ObjectMap) Cell(local touchos.Point, size touchos.Size) (row, col int, err error) {
	row, err = m.RowAt(local, size)
	if err != nil {
		return 0, 0, err
	}
	col, err = m.ColAt(local, size)
	if err != nil {
		return 0, 0, err
	}
	return row, col, nil
}

// RowOnView maps a screen-coordinate touch on view v to a tuple id,
// handling rotation via the view's local coordinate system.
func (m ObjectMap) RowOnView(v *touchos.View, screen touchos.Point) (int, error) {
	return m.RowAt(v.FromScreen(screen), v.LocalSize())
}

// CellOnView maps a screen-coordinate touch on a table view to (row, col).
func (m ObjectMap) CellOnView(v *touchos.View, screen touchos.Point) (row, col int, err error) {
	return m.Cell(v.FromScreen(screen), v.LocalSize())
}
