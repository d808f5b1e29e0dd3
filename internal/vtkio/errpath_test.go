package vtkio

import (
	"errors"
	"testing"

	"repro/internal/mesh"
)

// failWriter fails after n bytes, exercising the writers' error plumbing.
type failWriter struct {
	remaining int
}

func (f *failWriter) Write(p []byte) (int, error) {
	if f.remaining <= 0 {
		return 0, errors.New("disk full")
	}
	n := len(p)
	if n > f.remaining {
		n = f.remaining
		f.remaining = 0
		return n, errors.New("disk full")
	}
	f.remaining -= n
	return n, nil
}

func TestWritersPropagateIOErrors(t *testing.T) {
	tm := triMesh()
	um := mesh.NewUnstructuredMesh()
	p0 := addPoint(um, mesh.Vec3{0, 0, 0}, 0)
	p1 := addPoint(um, mesh.Vec3{1, 0, 0}, 1)
	p2 := addPoint(um, mesh.Vec3{0, 1, 0}, 2)
	p3 := addPoint(um, mesh.Vec3{0, 0, 1}, 3)
	addCell(um, mesh.Tet, p0, p1, p2, p3)
	ls := mesh.NewLineSet()
	ls.AppendLine([]mesh.Vec3{{0, 0, 0}, {1, 0, 0}}, []float64{0, 1})
	g, err := mesh.NewCubeGrid(2)
	if err != nil {
		t.Fatal(err)
	}
	cf := g.AddCellField("energy")
	for i := range cf {
		cf[i] = 1
	}

	// Fail at several truncation points: every writer must surface the
	// error rather than silently produce a short file.
	for _, limit := range []int{0, 10, 40, 120} {
		if err := WriteTriMesh(&failWriter{limit}, tm, "t", "s"); err == nil {
			t.Errorf("WriteTriMesh(limit %d) swallowed the write error", limit)
		}
		if err := WriteUnstructured(&failWriter{limit}, um, "t", "s"); err == nil {
			t.Errorf("WriteUnstructured(limit %d) swallowed the write error", limit)
		}
		if err := WriteLineSet(&failWriter{limit}, ls, "t", "s"); err == nil {
			t.Errorf("WriteLineSet(limit %d) swallowed the write error", limit)
		}
		if err := WriteUniformGrid(&failWriter{limit}, g, "t", "energy"); err == nil {
			t.Errorf("WriteUniformGrid(limit %d) swallowed the write error", limit)
		}
	}
}

func TestReadUnstructuredTruncatedSections(t *testing.T) {
	cases := map[string]string{
		"no cells": "# vtk DataFile Version 3.0\nt\nASCII\nDATASET UNSTRUCTURED_GRID\n" +
			"POINTS 1 double\n0 0 0\n",
		"short conn": "# vtk DataFile Version 3.0\nt\nASCII\nDATASET UNSTRUCTURED_GRID\n" +
			"POINTS 4 double\n0 0 0\n1 0 0\n0 1 0\n0 0 1\nCELLS 1 5\n4 0 1\n",
		"missing types": "# vtk DataFile Version 3.0\nt\nASCII\nDATASET UNSTRUCTURED_GRID\n" +
			"POINTS 4 double\n0 0 0\n1 0 0\n0 1 0\n0 0 1\nCELLS 1 5\n4 0 1 2 3\n",
		"header only": "# vtk DataFile Version 3.0\n",
	}
	for name, in := range cases {
		if _, err := ReadUnstructured(stringsReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func stringsReader(s string) *failReader { return &failReader{s: s} }

// failReader is a plain string reader (keeps this file free of extra
// imports).
type failReader struct {
	s   string
	pos int
}

func (r *failReader) Read(p []byte) (int, error) {
	if r.pos >= len(r.s) {
		return 0, errors.New("EOF")
	}
	n := copy(p, r.s[r.pos:])
	r.pos += n
	return n, nil
}
