package touchos

// Children returns a copy of the subviews in stacking order (bottom
// first).
func (v *View) Children() []*View {
	return append([]*View(nil), v.children...)
}
