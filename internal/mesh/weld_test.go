package mesh

import "testing"

func TestWeldPointsMergesDuplicates(t *testing.T) {
	m := NewUnstructuredMesh()
	// Two tets sharing a face, but with duplicated points.
	a0 := m.AddPoint(Vec3{0, 0, 0}, 1)
	a1 := m.AddPoint(Vec3{1, 0, 0}, 2)
	a2 := m.AddPoint(Vec3{0, 1, 0}, 3)
	a3 := m.AddPoint(Vec3{0, 0, 1}, 4)
	m.AddCell(Tet, a0, a1, a2, a3)
	b0 := m.AddPoint(Vec3{0, 0, 0}, 1)
	b1 := m.AddPoint(Vec3{1, 0, 0}, 2)
	b2 := m.AddPoint(Vec3{0, 1, 0}, 3)
	b3 := m.AddPoint(Vec3{0, 0, -1}, 5)
	m.AddCell(Tet, b0, b2, b1, b3)

	w := WeldPointsPool(m, 1e-9, nil)
	if len(w.Points) != 5 {
		t.Fatalf("welded points = %d, want 5", len(w.Points))
	}
	if w.NumCells() != 2 {
		t.Fatalf("welded cells = %d, want 2", w.NumCells())
	}
	if err := w.Validate(); err != nil {
		t.Fatalf("welded mesh invalid: %v", err)
	}
	// After welding, the shared face pairs up: external faces = 6.
	surf := ExternalFaces(w)
	if surf.NumTris() != 6 {
		t.Errorf("external faces after weld = %d, want 6", surf.NumTris())
	}
}

func TestWeldPointsTolerance(t *testing.T) {
	m := NewUnstructuredMesh()
	p0 := m.AddPoint(Vec3{0, 0, 0}, 0)
	p1 := m.AddPoint(Vec3{1e-12, 0, 0}, 0) // within tolerance of p0
	p2 := m.AddPoint(Vec3{0.5, 0, 0}, 0)   // distinct
	p3 := m.AddPoint(Vec3{0, 1, 0}, 0)
	m.AddCell(Tet, p0, p1, p2, p3)
	w := WeldPointsPool(m, 1e-9, nil)
	if len(w.Points) != 3 {
		t.Errorf("welded points = %d, want 3", len(w.Points))
	}
	// Default tolerance on non-positive input.
	w2 := WeldPointsPool(m, 0, nil)
	if len(w2.Points) != 3 {
		t.Errorf("default-tolerance welded points = %d, want 3", len(w2.Points))
	}
}

func TestWeldPreservesScalars(t *testing.T) {
	m := NewUnstructuredMesh()
	p0 := m.AddPoint(Vec3{0, 0, 0}, 42)
	p1 := m.AddPoint(Vec3{1, 0, 0}, 7)
	p2 := m.AddPoint(Vec3{0, 1, 0}, 8)
	p3 := m.AddPoint(Vec3{0, 0, 1}, 9)
	m.AddCell(Tet, p0, p1, p2, p3)
	w := WeldPointsPool(m, 1e-9, nil)
	if w.Scalars[0] != 42 {
		t.Errorf("scalar lost in weld: %v", w.Scalars)
	}
}
