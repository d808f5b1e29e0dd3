package mesh

import "fmt"

// Exported only to this package's tests: nothing else calls these, so
// they are declared here and not in the production tree.

// OwnsLayer reports whether global cell layer k belongs to this block.
func (b *Block) OwnsLayer(k int) bool { return k >= b.K0 && k < b.K1 }

// Valid reports whether the box has non-negative extent on every axis.
func (b Bounds) Valid() bool {
	return b.Lo[0] <= b.Hi[0] && b.Lo[1] <= b.Hi[1] && b.Lo[2] <= b.Hi[2]
}

// Mul returns the component-wise product v∘w.
func (v Vec3) Mul(w Vec3) Vec3 { return Vec3{v[0] * w[0], v[1] * w[1], v[2] * w[2]} }

// SetPointField installs an existing slice as a point field. The length
// must equal NumPoints.
func (g *UniformGrid) SetPointField(name string, data []float64) error {
	if len(data) != g.NumPoints() {
		return fmt.Errorf("mesh: point field %q has %d values, grid has %d points", name, len(data), g.NumPoints())
	}
	g.pointFields[name] = data
	return nil
}

// SetCellField installs an existing slice as a cell field. The length must
// equal NumCells.
func (g *UniformGrid) SetCellField(name string, data []float64) error {
	if len(data) != g.NumCells() {
		return fmt.Errorf("mesh: cell field %q has %d values, grid has %d cells", name, len(data), g.NumCells())
	}
	g.cellFields[name] = data
	return nil
}

// Append concatenates other into m, renumbering its connectivity: the
// serial merge the TriCollector (collect.go) is held to.
func (m *TriMesh) Append(other *TriMesh) {
	base := int32(len(m.Points))
	m.Points = append(m.Points, other.Points...)
	m.Scalars = append(m.Scalars, other.Scalars...)
	for _, t := range other.Tris {
		m.Tris = append(m.Tris, [3]int32{t[0] + base, t[1] + base, t[2] + base})
	}
}

// Append concatenates other into m, renumbering its connectivity: the
// serial merge the CellCollector (collect.go) is held to.
func (m *UnstructuredMesh) Append(other *UnstructuredMesh) {
	base := int32(len(m.Points))
	m.Points = append(m.Points, other.Points...)
	m.Scalars = append(m.Scalars, other.Scalars...)
	for i := 0; i < other.NumCells(); i++ {
		t, conn := other.Cell(i)
		m.Types = append(m.Types, t)
		for _, c := range conn {
			m.Conn = append(m.Conn, c+base)
		}
		m.Offsets = append(m.Offsets, int32(len(m.Conn)))
	}
}
