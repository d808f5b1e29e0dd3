package mesh

import "sort"

// faceDef lists the corner indices (into a cell's connectivity) of one face.
// Quads have n=4, triangles n=3.
type faceDef struct {
	n int
	v [4]int
}

// cellFaces returns the face definitions for a cell type, in VTK order.
func cellFaces(t CellType) []faceDef {
	switch t {
	case Tet:
		return []faceDef{
			{3, [4]int{0, 2, 1, 0}},
			{3, [4]int{0, 1, 3, 0}},
			{3, [4]int{1, 2, 3, 0}},
			{3, [4]int{0, 3, 2, 0}},
		}
	case Pyramid:
		return []faceDef{
			{4, [4]int{0, 3, 2, 1}},
			{3, [4]int{0, 1, 4, 0}},
			{3, [4]int{1, 2, 4, 0}},
			{3, [4]int{2, 3, 4, 0}},
			{3, [4]int{3, 0, 4, 0}},
		}
	case Wedge:
		return []faceDef{
			{3, [4]int{0, 1, 2, 0}},
			{3, [4]int{3, 5, 4, 0}},
			{4, [4]int{0, 3, 4, 1}},
			{4, [4]int{1, 4, 5, 2}},
			{4, [4]int{2, 5, 3, 0}},
		}
	case Hex:
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

// faceKey is a canonical (sorted) identifier for a face, independent of
// winding, used to pair interior faces shared by two cells.
type faceKey [4]int32

func canonicalFace(n int, a, b, c, d int32) faceKey {
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

// ExternalFaces extracts the boundary surface of an unstructured mesh: all
// faces that belong to exactly one cell, triangulated (quads split along
// the 0-2 diagonal). The output references a compacted copy of the points
// actually used by the surface, carrying their scalars.
//
// This is the "gather triangles and find external faces" stage the paper
// identifies as the data-intensive part of its ray-tracing workload.
func ExternalFaces(m *UnstructuredMesh) *TriMesh {
	type facePts struct {
		n int
		v [4]int32
	}
	count := make(map[faceKey]int, m.NumCells()*3)
	first := make(map[faceKey]facePts, m.NumCells()*3)
	for c := 0; c < m.NumCells(); c++ {
		t, conn := m.Cell(c)
		for _, f := range cellFaces(t) {
			var fp facePts
			fp.n = f.n
			for i := 0; i < f.n; i++ {
				fp.v[i] = conn[f.v[i]]
			}
			key := canonicalFace(fp.n, fp.v[0], fp.v[1], fp.v[2], fp.v[3])
			count[key]++
			if count[key] == 1 {
				first[key] = fp
			}
		}
	}

	out := &TriMesh{}
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
		for _, f := range cellFaces(t) {
			var v [4]int32
			for i := 0; i < f.n; i++ {
				v[i] = conn[f.v[i]]
			}
			key := canonicalFace(f.n, v[0], v[1], v[2], v[3])
			if count[key] != 1 || emitted[key] {
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

// GridExternalFaces extracts the six boundary faces of a uniform grid as a
// triangle mesh carrying the named point scalar field. This is the geometry
// the ray-tracing workload renders when given the raw data set.
func GridExternalFaces(g *UniformGrid, field string) (*TriMesh, error) {
	f, err := g.EnsurePointField(field)
	if err != nil {
		return nil, err
	}
	out := &TriMesh{}
	remap := make(map[int]int32, 2*(g.Dims[0]*g.Dims[1]+g.Dims[1]*g.Dims[2]+g.Dims[0]*g.Dims[2]))
	mapPt := func(id int) int32 {
		if nid, ok := remap[id]; ok {
			return nid
		}
		nid := int32(len(out.Points))
		out.Points = append(out.Points, g.PointPosition(id))
		out.Scalars = append(out.Scalars, f[id])
		remap[id] = nid
		return nid
	}
	quad := func(p0, p1, p2, p3 int) {
		a, b, c, d := mapPt(p0), mapPt(p1), mapPt(p2), mapPt(p3)
		out.Tris = append(out.Tris, [3]int32{a, b, c}, [3]int32{a, c, d})
	}
	nx, ny, nz := g.Dims[0], g.Dims[1], g.Dims[2]
	// k = 0 and k = nz-1 planes.
	for _, k := range []int{0, nz - 1} {
		for j := 0; j < ny-1; j++ {
			for i := 0; i < nx-1; i++ {
				quad(g.PointID(i, j, k), g.PointID(i+1, j, k), g.PointID(i+1, j+1, k), g.PointID(i, j+1, k))
			}
		}
	}
	// j = 0 and j = ny-1 planes.
	for _, j := range []int{0, ny - 1} {
		for k := 0; k < nz-1; k++ {
			for i := 0; i < nx-1; i++ {
				quad(g.PointID(i, j, k), g.PointID(i+1, j, k), g.PointID(i+1, j, k+1), g.PointID(i, j, k+1))
			}
		}
	}
	// i = 0 and i = nx-1 planes.
	for _, i := range []int{0, nx - 1} {
		for k := 0; k < nz-1; k++ {
			for j := 0; j < ny-1; j++ {
				quad(g.PointID(i, j, k), g.PointID(i, j+1, k), g.PointID(i, j+1, k+1), g.PointID(i, j, k+1))
			}
		}
	}
	return out, nil
}
