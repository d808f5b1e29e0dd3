package vtkio

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/mesh"
)

func TestTriMeshRoundTrip(t *testing.T) {
	orig := triMesh()
	var buf bytes.Buffer
	if err := WriteTriMesh(&buf, orig, "round trip", "energy"); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTriMesh(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumPoints() != orig.NumPoints() || got.NumTris() != orig.NumTris() {
		t.Fatalf("round trip lost geometry: %d/%d points, %d/%d tris",
			got.NumPoints(), orig.NumPoints(), got.NumTris(), orig.NumTris())
	}
	for i := range orig.Points {
		if got.Points[i] != orig.Points[i] {
			t.Fatalf("point %d = %v, want %v", i, got.Points[i], orig.Points[i])
		}
		if got.Scalars[i] != orig.Scalars[i] {
			t.Fatalf("scalar %d = %v, want %v", i, got.Scalars[i], orig.Scalars[i])
		}
	}
	for i := range orig.Tris {
		if got.Tris[i] != orig.Tris[i] {
			t.Fatalf("tri %d = %v, want %v", i, got.Tris[i], orig.Tris[i])
		}
	}
}

func TestUnstructuredRoundTrip(t *testing.T) {
	orig := mesh.NewUnstructuredMesh()
	p0 := addPoint(orig, mesh.Vec3{0, 0, 0}, 1)
	p1 := addPoint(orig, mesh.Vec3{1, 0, 0}, 2)
	p2 := addPoint(orig, mesh.Vec3{0, 1, 0}, 3)
	p3 := addPoint(orig, mesh.Vec3{0, 0, 1}, 4)
	addCell(orig, mesh.Tet, p0, p1, p2, p3)
	var hex [8]int32
	for i := range hex {
		hex[i] = addPoint(orig, mesh.Vec3{float64(i), 1, 1}, float64(i))
	}
	addCell(orig, mesh.Hex, hex[0], hex[1], hex[2], hex[3], hex[4], hex[5], hex[6], hex[7])
	var w6 [6]int32
	for i := range w6 {
		w6[i] = addPoint(orig, mesh.Vec3{float64(i), 2, 2}, 0)
	}
	addCell(orig, mesh.Wedge, w6[0], w6[1], w6[2], w6[3], w6[4], w6[5])

	var buf bytes.Buffer
	if err := WriteUnstructured(&buf, orig, "rt", "energy"); err != nil {
		t.Fatal(err)
	}
	got, err := ReadUnstructured(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumCells() != 3 || len(got.Points) != len(orig.Points) {
		t.Fatalf("round trip lost cells/points: %d cells, %d points", got.NumCells(), len(got.Points))
	}
	for c := 0; c < 3; c++ {
		wantT, wantConn := orig.Cell(c)
		gotT, gotConn := got.Cell(c)
		if wantT != gotT {
			t.Fatalf("cell %d type %v, want %v", c, gotT, wantT)
		}
		for i := range wantConn {
			if wantConn[i] != gotConn[i] {
				t.Fatalf("cell %d conn %v, want %v", c, gotConn, wantConn)
			}
		}
	}
	if got.Scalars[0] != 1 || got.Scalars[3] != 4 {
		t.Errorf("scalars lost: %v", got.Scalars[:4])
	}
}

func TestReadTriMeshRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"binary": "# vtk DataFile Version 3.0\nt\nBINARY\nDATASET POLYDATA\n",
		"wrong dataset": "# vtk DataFile Version 3.0\nt\nASCII\nDATASET STRUCTURED_POINTS\n" +
			"DIMENSIONS 2 2 2\n",
		"quad polygon": "# vtk DataFile Version 3.0\nt\nASCII\nDATASET POLYDATA\n" +
			"POINTS 4 double\n0 0 0\n1 0 0\n1 1 0\n0 1 0\nPOLYGONS 1 5\n4 0 1 2 3\n",
		"bad index": "# vtk DataFile Version 3.0\nt\nASCII\nDATASET POLYDATA\n" +
			"POINTS 3 double\n0 0 0\n1 0 0\n0 1 0\nPOLYGONS 1 4\n3 0 1 9\n",
		"truncated": "# vtk DataFile Version 3.0\nt\nASCII\nDATASET POLYDATA\nPOINTS 5 double\n0 0 0\n",
	}
	for name, in := range cases {
		if _, err := ReadTriMesh(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestReadUnstructuredRejectsGarbage(t *testing.T) {
	bad := "# vtk DataFile Version 3.0\nt\nASCII\nDATASET UNSTRUCTURED_GRID\n" +
		"POINTS 4 double\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n" +
		"CELLS 1 5\n4 0 1 2 3\nCELL_TYPES 1\n99\n"
	if _, err := ReadUnstructured(strings.NewReader(bad)); err == nil {
		t.Error("unknown cell code accepted")
	}
	mismatch := "# vtk DataFile Version 3.0\nt\nASCII\nDATASET UNSTRUCTURED_GRID\n" +
		"POINTS 4 double\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n" +
		"CELLS 1 4\n3 0 1 2\nCELL_TYPES 1\n10\n"
	if _, err := ReadUnstructured(strings.NewReader(mismatch)); err == nil {
		t.Error("tet with 3 points accepted")
	}
}

func TestReadTriMeshWithoutScalars(t *testing.T) {
	in := "# vtk DataFile Version 3.0\nt\nASCII\nDATASET POLYDATA\n" +
		"POINTS 3 double\n0 0 0\n1 0 0\n0 1 0\nPOLYGONS 1 4\n3 0 1 2\n"
	m, err := ReadTriMesh(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.NumTris() != 1 || len(m.Scalars) != 0 {
		t.Errorf("no-scalar mesh parsed wrong: %d tris, %d scalars", m.NumTris(), len(m.Scalars))
	}
}
