package mesh_test

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/sim/clover"
	"repro/internal/viz"
	"repro/internal/viz/clip"
	"repro/internal/viz/isovolume"
	"repro/internal/viz/threshold"
)

// The map-based ExternalFaces that faces.go replaced, kept as the output
// oracle: the names changed, the mesh package qualified, the face types
// copied so the oracle shares nothing with its subject, and one rule
// added since: a quad occurring once that two triangles occurring once
// tile along one of its diagonals is interior, and so are they (quads in
// cell order, the 0-2 diagonal first, each triangle claimed once), and so
// are two pairs of such triangles that tile one lattice quad along its
// two diagonals.

// faceDef lists the corner indices (into a cell's connectivity) of one face.
// Quads have n=4, triangles n=3.
type faceDef struct {
	n int
	v [4]int
}

// faceKey is a canonical (sorted) identifier for a face.
type faceKey [4]int32

// cellFacesRef returns the face definitions for a cell type, in VTK order.
func cellFacesRef(t mesh.CellType) []faceDef {
	switch t {
	case mesh.Tet:
		return []faceDef{
			{3, [4]int{0, 2, 1, 0}},
			{3, [4]int{0, 1, 3, 0}},
			{3, [4]int{1, 2, 3, 0}},
			{3, [4]int{0, 3, 2, 0}},
		}
	case mesh.Pyramid:
		return []faceDef{
			{4, [4]int{0, 3, 2, 1}},
			{3, [4]int{0, 1, 4, 0}},
			{3, [4]int{1, 2, 4, 0}},
			{3, [4]int{2, 3, 4, 0}},
			{3, [4]int{3, 0, 4, 0}},
		}
	case mesh.Wedge:
		return []faceDef{
			{3, [4]int{0, 1, 2, 0}},
			{3, [4]int{3, 5, 4, 0}},
			{4, [4]int{0, 3, 4, 1}},
			{4, [4]int{1, 4, 5, 2}},
			{4, [4]int{2, 5, 3, 0}},
		}
	case mesh.Hex:
		return []faceDef{
			{4, [4]int{0, 1, 5, 4}},
			{4, [4]int{1, 2, 6, 5}},
			{4, [4]int{2, 3, 7, 6}},
			{4, [4]int{3, 0, 4, 7}},
			{4, [4]int{0, 3, 2, 1}},
			{4, [4]int{4, 5, 6, 7}},
		}
	}
	return nil
}

func canonicalFaceRef(n int, a, b, c, d int32) faceKey {
	var k faceKey
	if n == 3 {
		k = faceKey{a, b, c, -1}
		s := k[:3]
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		return k
	}
	k = faceKey{a, b, c, d}
	s := k[:4]
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return k
}

func externalFacesRef(m *mesh.UnstructuredMesh) *mesh.TriMesh {
	type facePts struct {
		n int
		v [4]int32
	}
	count := make(map[faceKey]int, m.NumCells()*3)
	first := make(map[faceKey]facePts, m.NumCells()*3)
	for c := 0; c < m.NumCells(); c++ {
		t, conn := m.Cell(c)
		for _, f := range cellFacesRef(t) {
			var fp facePts
			fp.n = f.n
			for i := 0; i < f.n; i++ {
				fp.v[i] = conn[f.v[i]]
			}
			key := canonicalFaceRef(fp.n, fp.v[0], fp.v[1], fp.v[2], fp.v[3])
			count[key]++
			if count[key] == 1 {
				first[key] = fp
			}
		}
	}

	tiled := quadTiles(m, func(k faceKey) bool { return count[k] == 1 })

	out := &mesh.TriMesh{}
	remap := make(map[int32]int32)
	mapPt := func(id int32) int32 {
		if nid, ok := remap[id]; ok {
			return nid
		}
		nid := int32(len(out.Points))
		out.Points = append(out.Points, m.Points[id])
		out.Scalars = append(out.Scalars, m.Scalars[id])
		remap[id] = nid
		return nid
	}
	// Deterministic output order: iterate cells again rather than the map.
	emitted := make(map[faceKey]bool)
	for c := 0; c < m.NumCells(); c++ {
		t, conn := m.Cell(c)
		for _, f := range cellFacesRef(t) {
			var v [4]int32
			for i := 0; i < f.n; i++ {
				v[i] = conn[f.v[i]]
			}
			key := canonicalFaceRef(f.n, v[0], v[1], v[2], v[3])
			if count[key] != 1 || emitted[key] || tiled[key] {
				continue
			}
			emitted[key] = true
			a, b, cc := mapPt(v[0]), mapPt(v[1]), mapPt(v[2])
			out.Tris = append(out.Tris, [3]int32{a, b, cc})
			if f.n == 4 {
				d := mapPt(v[3])
				out.Tris = append(out.Tris, [3]int32{a, cc, d})
			}
		}
	}
	return out
}

// quadTiles walks the quad faces in cell order and returns the keys of
// every quad that two triangles tile along one of its diagonals (0-2
// first), with those triangles' keys; then the keys of every two
// triangle pairs that tile one lattice quad along its two diagonals:
// once reports the faces that may take part, and a triangle tiles at
// most one quad.
func quadTiles(m *mesh.UnstructuredMesh, once func(faceKey) bool) map[faceKey]bool {
	tiled := map[faceKey]bool{}
	for c := 0; c < m.NumCells(); c++ {
		t, conn := m.Cell(c)
		for _, f := range cellFacesRef(t) {
			if f.n != 4 {
				continue
			}
			var v [4]int32
			for i := range v {
				v[i] = conn[f.v[i]]
			}
			quad := canonicalFaceRef(4, v[0], v[1], v[2], v[3])
			if !once(quad) {
				continue
			}
			for d := 0; d < 2; d++ {
				t1 := canonicalFaceRef(3, v[d], v[d+1], v[d+2], 0)
				t2 := canonicalFaceRef(3, v[d], v[d+2], v[(d+3)%4], 0)
				if t1 != t2 && once(t1) && once(t2) && !tiled[t1] && !tiled[t2] {
					tiled[quad], tiled[t1], tiled[t2] = true, true, true
					break
				}
			}
		}
	}
	// The four triangles on four coplanar points are the faces of a flat
	// tetrahedron. Three hold its smallest point: take the triangles by
	// smallest point, ascending, each point's in cell order, and try
	// every three of them on four points in all.
	byMin := map[int32][]faceKey{}
	for c := 0; c < m.NumCells(); c++ {
		t, conn := m.Cell(c)
		for _, f := range cellFacesRef(t) {
			if key := canonicalFaceRef(f.n, conn[f.v[0]], conn[f.v[1]], conn[f.v[2]], conn[f.v[3]]); f.n == 3 && once(key) && !tiled[key] {
				byMin[key[0]] = append(byMin[key[0]], key)
			}
		}
	}
	var mins []int32
	for p := range byMin {
		mins = append(mins, p)
	}
	sort.Slice(mins, func(i, j int) bool { return mins[i] < mins[j] })
	for _, p := range mins {
		ts := byMin[p]
		for i := range ts {
			for j := i + 1; j < len(ts); j++ {
				for k := j + 1; k < len(ts); k++ {
					pts := map[int32]bool{}
					for _, key := range []faceKey{ts[i], ts[j], ts[k]} {
						for _, v := range key[:3] {
							pts[v] = true
						}
					}
					if len(pts) != 4 || tiled[ts[i]] || tiled[ts[j]] || tiled[ts[k]] {
						continue
					}
					var rest []int32
					for v := range pts {
						if v != p {
							rest = append(rest, v)
						}
					}
					fourth := canonicalFaceRef(3, rest[0], rest[1], rest[2], 0)
					if once(fourth) && !tiled[fourth] && coplanarOnAxis(m, p, rest) {
						tiled[ts[i]], tiled[ts[j]], tiled[ts[k]], tiled[fourth] = true, true, true, true
					}
				}
			}
		}
	}
	return tiled
}

// coplanarOnAxis reports whether p and rest lie in one plane x, y or z =
// const: the lattice quads the tetrahedra of a clipped hex share.
func coplanarOnAxis(m *mesh.UnstructuredMesh, p int32, rest []int32) bool {
	for ax := 0; ax < 3; ax++ {
		same := true
		for _, v := range rest {
			same = same && m.Points[v][ax] == m.Points[p][ax]
		}
		if same {
			return true
		}
	}
	return false
}

// requireFacesMatchOracle compares ExternalFaces with the oracle on m and
// checks, without either, that the surface is exactly the faces occurring
// once in m but the quads that such triangles tile and those triangles:
// every emitted triangle lies in such a face, and the triangle count is
// theirs (one per triangle, two per quad).
func requireFacesMatchOracle(t *testing.T, m *mesh.UnstructuredMesh) *mesh.TriMesh {
	t.Helper()
	got := mesh.ExternalFaces(m)
	if want := externalFacesRef(m); !reflect.DeepEqual(got, want) {
		t.Fatalf("ExternalFaces differs from the oracle: %d tris over %d points, want %d over %d",
			got.NumTris(), got.NumPoints(), want.NumTris(), want.NumPoints())
	}

	count := map[faceKey]int{}
	for c := 0; c < m.NumCells(); c++ {
		ct, conn := m.Cell(c)
		for _, f := range cellFacesRef(ct) {
			count[canonicalFaceRef(f.n, conn[f.v[0]], conn[f.v[1]], conn[f.v[2]], conn[f.v[3]])]++
		}
	}
	tiled := quadTiles(m, func(k faceKey) bool { return count[k] == 1 })
	onSurface := map[faceKey]bool{} // every triangle drawn from a face seen once
	wantTris := 0
	for key, n := range count {
		if n != 1 || tiled[key] {
			continue
		}
		if key[3] < 0 {
			onSurface[key] = true
			wantTris++
			continue
		}
		for drop := 0; drop < 4; drop++ {
			var tri []int32
			for i, v := range key {
				if i != drop {
					tri = append(tri, v)
				}
			}
			onSurface[canonicalFaceRef(3, tri[0], tri[1], tri[2], 0)] = true
		}
		wantTris += 2
	}
	if got.NumTris() != wantTris {
		t.Fatalf("%d triangles, want %d from the faces occurring once", got.NumTris(), wantTris)
	}
	// The welded input has no coincident points, so a position names one.
	id := make(map[mesh.Vec3]int32, len(m.Points))
	for i, p := range m.Points {
		id[p] = int32(i)
	}
	for i, tri := range got.Tris {
		a, b, c := id[got.Points[tri[0]]], id[got.Points[tri[1]]], id[got.Points[tri[2]]]
		if !onSurface[canonicalFaceRef(3, a, b, c, 0)] {
			t.Fatalf("triangle %d (input points %d,%d,%d) is not part of a face occurring once", i, a, b, c)
		}
	}
	return got
}

// TestExternalFacesMatchesOracle runs the three Figure 1 surface paths —
// the Threshold, Spherical Clip and Isovolume outputs, each of whose
// points is already welded — at three sizes.
func TestExternalFacesMatchesOracle(t *testing.T) {
	pool := par.NewPool(2)
	defer pool.Close()
	for _, n := range []int{8, 16, 32} {
		sim, err := clover.New(n, clover.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for sim.Time() < 0.05 {
			sim.Step(pool, nil)
		}
		g, err := sim.Grid()
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []viz.Filter{
			threshold.New(threshold.Options{}),
			clip.New(clip.Options{}),
			isovolume.New(isovolume.Options{}),
		} {
			res, err := f.Run(g, viz.NewExec(pool))
			if err != nil {
				t.Fatalf("%s at %d^3: %v", f.Name(), n, err)
			}
			if welded := mesh.WeldPointsPool(res.Cells, 1e-9, pool); len(welded.Points) != len(res.Cells.Points) {
				t.Fatalf("%s at %d^3: %d points weld into %d", f.Name(), n, len(res.Cells.Points), len(welded.Points))
			}
			surf := requireFacesMatchOracle(t, res.Cells)
			if surf.NumTris() == 0 {
				t.Errorf("%s at %d^3: empty surface", f.Name(), n)
			}
		}
	}
}

// TestExternalFacesMixedCells pairs triangle and quad faces across all four
// cell types: a hex under a pyramid and beside a wedge, and two tets that
// share a face with each other, with the wedge and with the pyramid.
func TestExternalFacesMixedCells(t *testing.T) {
	m := mesh.NewUnstructuredMesh()
	for i, p := range []mesh.Vec3{
		{0, 0, 0}, {1, 0, 0}, {1, 1, 0}, {0, 1, 0}, {0, 0, 1}, {1, 0, 1}, {1, 1, 1}, {0, 1, 1},
		{0.5, 0.5, 2}, {2, 0.5, 0}, {2, 0.5, 1}, {1.5, 0.5, 2},
	} {
		m.AddPoint(p, float64(i))
	}
	m.AddCell(mesh.Hex, 0, 1, 2, 3, 4, 5, 6, 7)
	m.AddCell(mesh.Pyramid, 4, 5, 6, 7, 8)   // base on the hex's top quad
	m.AddCell(mesh.Wedge, 1, 2, 9, 5, 6, 10) // a quad on the hex's x=1 face
	m.AddCell(mesh.Tet, 5, 6, 10, 11)        // on the wedge's top triangle
	m.AddCell(mesh.Tet, 5, 6, 8, 11)         // on a pyramid side and on the other tet
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	surf := requireFacesMatchOracle(t, m)
	// 24 faces, 5 shared pairs: 6 quads and 8 triangles remain.
	if surf.NumTris() != 20 {
		t.Errorf("%d triangles, want 20", surf.NumTris())
	}
	if err := surf.Validate(); err != nil {
		t.Error(err)
	}
}

// TestExternalFacesQuadTiledByTriangles puts two tets on each of a hex's
// top and bottom quads, split along the 0-2 diagonal above and the 1-3
// diagonal below: each quad and the two triangles tiling it are
// interior, as is the face the two tets share.
func TestExternalFacesQuadTiledByTriangles(t *testing.T) {
	m := mesh.NewUnstructuredMesh()
	for i, p := range []mesh.Vec3{
		{0, 0, 0}, {1, 0, 0}, {1, 1, 0}, {0, 1, 0}, {0, 0, 1}, {1, 0, 1}, {1, 1, 1}, {0, 1, 1},
		{0.5, 0.5, 2}, {0.5, 0.5, -1},
	} {
		m.AddPoint(p, float64(i))
	}
	m.AddCell(mesh.Hex, 0, 1, 2, 3, 4, 5, 6, 7)
	m.AddCell(mesh.Tet, 4, 5, 6, 8) // the top quad 4-5-6-7 split along 4-6
	m.AddCell(mesh.Tet, 4, 6, 7, 8)
	m.AddCell(mesh.Tet, 0, 1, 3, 9) // the bottom quad 0-3-2-1 split along 1-3
	m.AddCell(mesh.Tet, 1, 2, 3, 9)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	surf := requireFacesMatchOracle(t, m)
	// The hex's four sides, two triangles each, and two outer faces per tet.
	if surf.NumTris() != 16 {
		t.Errorf("%d triangles, want 16", surf.NumTris())
	}
	if err := surf.Validate(); err != nil {
		t.Error(err)
	}
}

// TestExternalFacesTrianglePairsTileOneQuad puts two tets above a quad,
// split along its 0-2 diagonal, and two below it, split along 1-3: the
// four triangles on the quad are interior, as is the face each pair
// shares. A single tet's four faces are not on one plane and stay
// (TestExternalFacesSingleTet).
func TestExternalFacesTrianglePairsTileOneQuad(t *testing.T) {
	m := mesh.NewUnstructuredMesh()
	for i, p := range []mesh.Vec3{
		{0, 0, 1}, {1, 0, 1}, {1, 1, 1}, {0, 1, 1}, {0.5, 0.5, 2}, {0.5, 0.5, 0},
	} {
		m.AddPoint(p, float64(i))
	}
	m.AddCell(mesh.Tet, 0, 1, 2, 4) // above, along 0-2
	m.AddCell(mesh.Tet, 0, 2, 3, 4)
	m.AddCell(mesh.Tet, 0, 1, 3, 5) // below, along 1-3
	m.AddCell(mesh.Tet, 1, 2, 3, 5)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	surf := requireFacesMatchOracle(t, m)
	// 16 faces; the two shared faces and the four on the quad go.
	if surf.NumTris() != 8 {
		t.Errorf("%d triangles, want 8", surf.NumTris())
	}
	if err := surf.Validate(); err != nil {
		t.Error(err)
	}
}
