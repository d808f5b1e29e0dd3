package volren

// Exported only to this package's tests: nothing else calls these, so
// they are declared here and not in the production tree.

// NumBricks returns the number of macrocells.
func (m *MacroGrid) NumBricks() int { return len(m.mn) }

// Brick returns the macrocell edge length in cells.
func (m *MacroGrid) Brick() int { return m.brick }
