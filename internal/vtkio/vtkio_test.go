package vtkio

import (
	"bufio"
	"bytes"
	"strconv"
	"strings"
	"testing"

	"repro/internal/mesh"
)

func triMesh() *mesh.TriMesh {
	return &mesh.TriMesh{
		Points:  []mesh.Vec3{{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}},
		Scalars: []float64{1, 2, 3, 4},
		Tris:    [][3]int32{{0, 1, 2}, {0, 1, 3}},
	}
}

// countTokens walks a legacy VTK body counting tokens in a section.
func sectionLine(t *testing.T, out, prefix string) string {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), prefix) {
			return sc.Text()
		}
	}
	t.Fatalf("section %q not found in output:\n%s", prefix, out)
	return ""
}

func TestWriteTriMesh(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTriMesh(&buf, triMesh(), "contour output", "energy"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "# vtk DataFile Version 3.0\n") {
		t.Errorf("missing header:\n%s", out[:60])
	}
	if !strings.Contains(out, "DATASET POLYDATA") {
		t.Error("missing POLYDATA")
	}
	if got := sectionLine(t, out, "POINTS"); got != "POINTS 4 double" {
		t.Errorf("POINTS line = %q", got)
	}
	if got := sectionLine(t, out, "POLYGONS"); got != "POLYGONS 2 8" {
		t.Errorf("POLYGONS line = %q", got)
	}
	if got := sectionLine(t, out, "SCALARS"); got != "SCALARS energy double 1" {
		t.Errorf("SCALARS line = %q", got)
	}
	if !strings.Contains(out, "3 0 1 2") {
		t.Error("triangle connectivity missing")
	}
}

func TestWriteUnstructured(t *testing.T) {
	m := mesh.NewUnstructuredMesh()
	p0 := addPoint(m, mesh.Vec3{0, 0, 0}, 0)
	p1 := addPoint(m, mesh.Vec3{1, 0, 0}, 1)
	p2 := addPoint(m, mesh.Vec3{0, 1, 0}, 2)
	p3 := addPoint(m, mesh.Vec3{0, 0, 1}, 3)
	addCell(m, mesh.Tet, p0, p1, p2, p3)
	var hex [8]int32
	for i := range hex {
		hex[i] = addPoint(m, mesh.Vec3{float64(i), 0, 0}, float64(i))
	}
	addCell(m, mesh.Hex, hex[0], hex[1], hex[2], hex[3], hex[4], hex[5], hex[6], hex[7])

	var buf bytes.Buffer
	if err := WriteUnstructured(&buf, m, "threshold output", "energy"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "DATASET UNSTRUCTURED_GRID") {
		t.Error("missing UNSTRUCTURED_GRID")
	}
	// CELLS count total = ncells + sum(conn) = 2 + 12.
	if got := sectionLine(t, out, "CELLS"); got != "CELLS 2 14" {
		t.Errorf("CELLS line = %q", got)
	}
	if got := sectionLine(t, out, "CELL_TYPES"); got != "CELL_TYPES 2" {
		t.Errorf("CELL_TYPES line = %q", got)
	}
	// Type codes: tet=10, hex=12 in order.
	idx := strings.Index(out, "CELL_TYPES 2\n")
	rest := out[idx+len("CELL_TYPES 2\n"):]
	lines := strings.SplitN(rest, "\n", 3)
	if lines[0] != "10" || lines[1] != "12" {
		t.Errorf("cell type codes = %v", lines[:2])
	}
}

func TestWriteLineSet(t *testing.T) {
	l := mesh.NewLineSet()
	l.AppendLine([]mesh.Vec3{{0, 0, 0}, {1, 0, 0}, {2, 0, 0}}, []float64{0, 1, 2})
	l.AppendLine([]mesh.Vec3{{0, 1, 0}, {0, 2, 0}}, []float64{3, 4})
	var buf bytes.Buffer
	if err := WriteLineSet(&buf, l, "streamlines", "speed"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// LINES count size = 2 lines, size = (1+3)+(1+2) = 7.
	if got := sectionLine(t, out, "LINES"); got != "LINES 2 7" {
		t.Errorf("LINES line = %q", got)
	}
	if !strings.Contains(out, "3 0 1 2") || !strings.Contains(out, "2 3 4") {
		t.Errorf("polyline connectivity wrong:\n%s", out)
	}
}

func TestWriteUniformGrid(t *testing.T) {
	g, err := mesh.NewCubeGrid(2)
	if err != nil {
		t.Fatal(err)
	}
	cf := g.AddCellField("energy")
	for i := range cf {
		cf[i] = float64(i)
	}
	if _, err := g.CellToPoint("energy"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteUniformGrid(&buf, g, "clover energy", "energy"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if got := sectionLine(t, out, "DIMENSIONS"); got != "DIMENSIONS 3 3 3" {
		t.Errorf("DIMENSIONS = %q", got)
	}
	if got := sectionLine(t, out, "CELL_DATA"); got != "CELL_DATA 8" {
		t.Errorf("CELL_DATA = %q", got)
	}
	if got := sectionLine(t, out, "POINT_DATA"); got != "POINT_DATA 27" {
		t.Errorf("POINT_DATA = %q", got)
	}
	// Spacing parses as floats.
	sp := strings.Fields(sectionLine(t, out, "SPACING"))
	if len(sp) != 4 {
		t.Fatalf("SPACING = %v", sp)
	}
	if v, err := strconv.ParseFloat(sp[1], 64); err != nil || v != 0.5 {
		t.Errorf("spacing[0] = %v (%v)", v, err)
	}
}

func TestWriteUniformGridMissingField(t *testing.T) {
	g, err := mesh.NewCubeGrid(2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteUniformGrid(&buf, g, "x", "nope"); err == nil {
		t.Error("missing field accepted")
	}
}

func TestValueCountsMatchDeclarations(t *testing.T) {
	// The number of scalar values written must equal the declared count.
	var buf bytes.Buffer
	if err := WriteTriMesh(&buf, triMesh(), "t", "s"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	idx := strings.Index(out, "LOOKUP_TABLE default\n")
	values := strings.Fields(out[idx+len("LOOKUP_TABLE default\n"):])
	if len(values) != 4 {
		t.Errorf("wrote %d scalar values, want 4", len(values))
	}
}
