package mesh

import (
	"fmt"
	"math"
)

// Exported only to this package's tests: nothing else calls these, so
// they are declared here and not in the production tree.

// Sample is At for a Vec3 probe: the spelling the sampler tests compare
// against the by-name oracle with.
func (s *VectorSampler) Sample(p Vec3) (Vec3, bool) {
	vx, vy, vz, ok := s.At(p[0], p[1], p[2])
	return Vec3{vx, vy, vz}, ok
}

// OwnsLayer reports whether global cell layer k belongs to this block.
func (b *Block) OwnsLayer(k int) bool { return k >= b.K0 && k < b.K1 }

// CellPoints returns the flat point ids of a cell's eight corners in VTK
// hexahedron order: the k-plane quad (counter-clockwise) followed by the
// k+1-plane quad.
func (g *UniformGrid) CellPoints(cell int) (pts [8]int) {
	w := g.WalkCells(cell)
	for c := range pts {
		pts[c] = w.Point(c)
	}
	return pts
}

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

// Append concatenates other into m, renumbering its connectivity.
func (m *TriMesh) Append(other *TriMesh) {
	base := int32(len(m.Points))
	m.Points = append(m.Points, other.Points...)
	m.Scalars = append(m.Scalars, other.Scalars...)
	for _, t := range other.Tris {
		m.Tris = append(m.Tris, [3]int32{t[0] + base, t[1] + base, t[2] + base})
	}
}

// Append concatenates other into m, renumbering its connectivity.
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

// Bounds returns the bounding box of the mesh points.
func (m *TriMesh) Bounds() Bounds {
	b := EmptyBounds()
	for _, p := range m.Points {
		b.Extend(p)
	}
	return b
}

// Bounds returns the bounding box of the mesh points.
func (m *UnstructuredMesh) Bounds() Bounds {
	b := EmptyBounds()
	for _, p := range m.Points {
		b.Extend(p)
	}
	return b
}

// AddPoint appends a point with its scalar and returns its index.
func (m *UnstructuredMesh) AddPoint(p Vec3, s float64) int32 {
	m.Points = append(m.Points, p)
	m.Scalars = append(m.Scalars, s)
	return int32(len(m.Points) - 1)
}

// AddCell appends a cell of the given type. len(conn) must match the type.
func (m *UnstructuredMesh) AddCell(t CellType, conn ...int32) {
	if len(conn) != t.NumCellPoints() {
		panic(fmt.Sprintf("mesh: %s cell needs %d points, got %d", t, t.NumCellPoints(), len(conn)))
	}
	m.Types = append(m.Types, t)
	m.Conn = append(m.Conn, conn...)
	m.Offsets = append(m.Offsets, int32(len(m.Conn)))
}

// Extend grows b to include point p.
func (b *Bounds) Extend(p Vec3) {
	b.Lo = b.Lo.Min(p)
	b.Hi = b.Hi.Max(p)
}

// Min returns the component-wise minimum of v and w.
func (v Vec3) Min(w Vec3) Vec3 {
	return Vec3{math.Min(v[0], w[0]), math.Min(v[1], w[1]), math.Min(v[2], w[2])}
}

// Max returns the component-wise maximum of v and w.
func (v Vec3) Max(w Vec3) Vec3 {
	return Vec3{math.Max(v[0], w[0]), math.Max(v[1], w[1]), math.Max(v[2], w[2])}
}
