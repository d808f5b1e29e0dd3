package vtkio

// The readers below are the writers' round-trip oracle: a test writes a
// mesh, reads it back and compares. Nothing outside the tests reads VTK,
// so they live beside the tests and not in the production tree.

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/mesh"
)

// scanner tokenizes a legacy VTK stream.
type scanner struct {
	s   *bufio.Scanner
	buf []string
}

func newScanner(r io.Reader) *scanner {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 1<<20), 1<<24)
	s.Split(bufio.ScanWords)
	return &scanner{s: s}
}

func (sc *scanner) next() (string, error) {
	if !sc.s.Scan() {
		if err := sc.s.Err(); err != nil {
			return "", err
		}
		return "", io.EOF
	}
	return sc.s.Text(), nil
}

func (sc *scanner) expect(word string) error {
	got, err := sc.next()
	if err != nil {
		return err
	}
	if !strings.EqualFold(got, word) {
		return fmt.Errorf("vtkio: expected %q, got %q", word, got)
	}
	return nil
}

func (sc *scanner) nextInt() (int, error) {
	w, err := sc.next()
	if err != nil {
		return 0, err
	}
	return strconv.Atoi(w)
}

func (sc *scanner) nextFloat() (float64, error) {
	w, err := sc.next()
	if err != nil {
		return 0, err
	}
	return strconv.ParseFloat(w, 64)
}

// header consumes the four-line legacy header through "DATASET <kind>"
// and returns the dataset kind.
func readHeader(r *bufio.Reader) (kind string, rest io.Reader, err error) {
	// First two lines are free text ("# vtk DataFile Version x", title).
	for i := 0; i < 2; i++ {
		if _, err := r.ReadString('\n'); err != nil {
			return "", nil, fmt.Errorf("vtkio: truncated header: %w", err)
		}
	}
	format, err := r.ReadString('\n')
	if err != nil {
		return "", nil, err
	}
	if !strings.EqualFold(strings.TrimSpace(format), "ASCII") {
		return "", nil, fmt.Errorf("vtkio: only ASCII legacy files supported, got %q", strings.TrimSpace(format))
	}
	dataset, err := r.ReadString('\n')
	if err != nil {
		return "", nil, err
	}
	fields := strings.Fields(dataset)
	if len(fields) != 2 || !strings.EqualFold(fields[0], "DATASET") {
		return "", nil, fmt.Errorf("vtkio: malformed DATASET line %q", strings.TrimSpace(dataset))
	}
	return strings.ToUpper(fields[1]), r, nil
}

func readPoints(sc *scanner) ([]mesh.Vec3, error) {
	if err := sc.expect("POINTS"); err != nil {
		return nil, err
	}
	n, err := sc.nextInt()
	if err != nil {
		return nil, err
	}
	if _, err := sc.next(); err != nil { // data type word
		return nil, err
	}
	pts := make([]mesh.Vec3, n)
	for i := 0; i < n; i++ {
		for c := 0; c < 3; c++ {
			v, err := sc.nextFloat()
			if err != nil {
				return nil, fmt.Errorf("vtkio: point %d: %w", i, err)
			}
			pts[i][c] = v
		}
	}
	return pts, nil
}

// readPointScalars parses an optional POINT_DATA/SCALARS block; returns
// nil when the stream ends first.
func readPointScalars(sc *scanner, nPoints int) ([]float64, error) {
	w, err := sc.next()
	if err == io.EOF {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if !strings.EqualFold(w, "POINT_DATA") {
		return nil, fmt.Errorf("vtkio: unexpected section %q", w)
	}
	n, err := sc.nextInt()
	if err != nil {
		return nil, err
	}
	if n != nPoints {
		return nil, fmt.Errorf("vtkio: POINT_DATA %d for %d points", n, nPoints)
	}
	// SCALARS name type [components], LOOKUP_TABLE default.
	if err := sc.expect("SCALARS"); err != nil {
		return nil, err
	}
	if _, err := sc.next(); err != nil { // name
		return nil, err
	}
	if _, err := sc.next(); err != nil { // type
		return nil, err
	}
	w, err = sc.next()
	if err != nil {
		return nil, err
	}
	if !strings.EqualFold(w, "LOOKUP_TABLE") {
		// Optional component count came first.
		if err := sc.expect("LOOKUP_TABLE"); err != nil {
			return nil, err
		}
	}
	if _, err := sc.next(); err != nil { // table name
		return nil, err
	}
	out := make([]float64, n)
	for i := range out {
		v, err := sc.nextFloat()
		if err != nil {
			return nil, fmt.Errorf("vtkio: scalar %d: %w", i, err)
		}
		out[i] = v
	}
	return out, nil
}

// ReadTriMesh parses an ASCII legacy POLYDATA file with triangular
// POLYGONS (the format WriteTriMesh produces).
func ReadTriMesh(r io.Reader) (*mesh.TriMesh, error) {
	kind, rest, err := readHeader(bufio.NewReader(r))
	if err != nil {
		return nil, err
	}
	if kind != "POLYDATA" {
		return nil, fmt.Errorf("vtkio: expected POLYDATA, got %s", kind)
	}
	sc := newScanner(rest)
	pts, err := readPoints(sc)
	if err != nil {
		return nil, err
	}
	if err := sc.expect("POLYGONS"); err != nil {
		return nil, err
	}
	nPolys, err := sc.nextInt()
	if err != nil {
		return nil, err
	}
	if _, err := sc.nextInt(); err != nil { // total size
		return nil, err
	}
	out := &mesh.TriMesh{Points: pts}
	for p := 0; p < nPolys; p++ {
		arity, err := sc.nextInt()
		if err != nil {
			return nil, err
		}
		if arity != 3 {
			return nil, fmt.Errorf("vtkio: polygon %d has %d vertices; only triangles supported", p, arity)
		}
		var tri [3]int32
		for c := 0; c < 3; c++ {
			v, err := sc.nextInt()
			if err != nil {
				return nil, err
			}
			tri[c] = int32(v)
		}
		out.Tris = append(out.Tris, tri)
	}
	scalars, err := readPointScalars(sc, len(pts))
	if err != nil {
		return nil, err
	}
	if scalars != nil {
		out.Scalars = scalars
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadUnstructured parses an ASCII legacy UNSTRUCTURED_GRID file
// containing the cell types this library writes (tet/pyramid/wedge/hex).
func ReadUnstructured(r io.Reader) (*mesh.UnstructuredMesh, error) {
	kind, rest, err := readHeader(bufio.NewReader(r))
	if err != nil {
		return nil, err
	}
	if kind != "UNSTRUCTURED_GRID" {
		return nil, fmt.Errorf("vtkio: expected UNSTRUCTURED_GRID, got %s", kind)
	}
	sc := newScanner(rest)
	pts, err := readPoints(sc)
	if err != nil {
		return nil, err
	}
	if err := sc.expect("CELLS"); err != nil {
		return nil, err
	}
	nCells, err := sc.nextInt()
	if err != nil {
		return nil, err
	}
	if _, err := sc.nextInt(); err != nil { // total size
		return nil, err
	}
	conns := make([][]int32, nCells)
	for c := 0; c < nCells; c++ {
		arity, err := sc.nextInt()
		if err != nil {
			return nil, err
		}
		conn := make([]int32, arity)
		for i := 0; i < arity; i++ {
			v, err := sc.nextInt()
			if err != nil {
				return nil, err
			}
			conn[i] = int32(v)
		}
		conns[c] = conn
	}
	if err := sc.expect("CELL_TYPES"); err != nil {
		return nil, err
	}
	if n, err := sc.nextInt(); err != nil || n != nCells {
		return nil, fmt.Errorf("vtkio: CELL_TYPES %d for %d cells (%v)", n, nCells, err)
	}
	out := mesh.NewUnstructuredMesh()
	out.Points = pts
	out.Scalars = make([]float64, len(pts))
	for c := 0; c < nCells; c++ {
		code, err := sc.nextInt()
		if err != nil {
			return nil, err
		}
		var ct mesh.CellType
		switch code {
		case vtkTet:
			ct = mesh.Tet
		case vtkHex:
			ct = mesh.Hex
		case vtkWedge:
			ct = mesh.Wedge
		case vtkPyramid:
			ct = mesh.Pyramid
		default:
			return nil, fmt.Errorf("vtkio: unsupported cell type code %d", code)
		}
		if ct.NumCellPoints() != len(conns[c]) {
			return nil, fmt.Errorf("vtkio: cell %d type %s has %d points", c, ct, len(conns[c]))
		}
		addCell(out, ct, conns[c]...)
	}
	scalars, err := readPointScalars(sc, len(pts))
	if err != nil {
		return nil, err
	}
	if scalars != nil {
		out.Scalars = scalars
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// addPoint appends a point with its scalar to m and returns its index.
func addPoint(m *mesh.UnstructuredMesh, p mesh.Vec3, s float64) int32 {
	m.Points = append(m.Points, p)
	m.Scalars = append(m.Scalars, s)
	return int32(len(m.Points) - 1)
}

// addCell appends a cell of type t with connectivity conn to m.
func addCell(m *mesh.UnstructuredMesh, t mesh.CellType, conn ...int32) {
	m.Types = append(m.Types, t)
	m.Conn = append(m.Conn, conn...)
	m.Offsets = append(m.Offsets, int32(len(m.Conn)))
}
