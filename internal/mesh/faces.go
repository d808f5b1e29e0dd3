package mesh

// faceDef lists the corner indices (into a cell's connectivity) of one face.
// Quads have n=4, triangles n=3.
type faceDef struct {
	n int
	v [4]int
}

// cellFaceTable holds the face definitions of each cell type, in VTK order.
var cellFaceTable = [...][]faceDef{
	Tet: {
		{3, [4]int{0, 2, 1, 0}},
		{3, [4]int{0, 1, 3, 0}},
		{3, [4]int{1, 2, 3, 0}},
		{3, [4]int{0, 3, 2, 0}},
	},
	Pyramid: {
		{4, [4]int{0, 3, 2, 1}},
		{3, [4]int{0, 1, 4, 0}},
		{3, [4]int{1, 2, 4, 0}},
		{3, [4]int{2, 3, 4, 0}},
		{3, [4]int{3, 0, 4, 0}},
	},
	Wedge: {
		{3, [4]int{0, 1, 2, 0}},
		{3, [4]int{3, 5, 4, 0}},
		{4, [4]int{0, 3, 4, 1}},
		{4, [4]int{1, 4, 5, 2}},
		{4, [4]int{2, 5, 3, 0}},
	},
	Hex: {
		{4, [4]int{0, 1, 5, 4}},
		{4, [4]int{1, 2, 6, 5}},
		{4, [4]int{2, 3, 7, 6}},
		{4, [4]int{3, 0, 4, 7}},
		{4, [4]int{0, 3, 2, 1}},
		{4, [4]int{4, 5, 6, 7}},
	},
}

// cellFaces returns the face definitions for a cell type (none for an
// unknown type).
func cellFaces(t CellType) []faceDef {
	if int(t) < len(cellFaceTable) {
		return cellFaceTable[t]
	}
	return nil
}

// faceKey is a canonical (sorted) identifier for a face, independent of
// winding, used to pair interior faces shared by two cells. A triangle's
// fourth entry is -1.
type faceKey [4]int32

// canonicalFace sorts the face's point ids with a 3- or 5-comparator
// network (min/max pairs compile to conditional moves, not branches).
func canonicalFace(n int, a, b, c, d int32) faceKey {
	a, b = min(a, b), max(a, b)
	if n == 3 {
		b, c = min(b, c), max(b, c)
		return faceKey{min(a, b), max(a, b), c, -1}
	}
	c, d = min(c, d), max(c, d)
	a, c = min(a, c), max(a, c)
	b, d = min(b, d), max(b, d)
	return faceKey{a, min(b, c), max(b, c), d}
}

// ExternalFaces extracts the boundary surface of an unstructured mesh: all
// faces that belong to exactly one cell, triangulated (quads split along
// the 0-2 diagonal), in cell order. The output references a compacted copy
// of the points actually used by the surface, carrying their scalars.
//
// This is the "gather triangles and find external faces" stage the paper
// identifies as the data-intensive part of its ray-tracing workload.
//
// Two faces can only be equal if they share their smallest point, so the
// faces are filed under it (count, scan, fill: 4 bytes per face, point
// and cell, and a flag per face) and each point's handful of faces is
// compared among itself. Every array is exactly sized, the output
// included.
func ExternalFaces(m *UnstructuredMesh) *TriMesh {
	nCells := m.NumCells()
	// Pass 1: number the faces in cell order (faceStart) and count each
	// point's faces in group[p+1].
	faceStart := make([]int32, nCells+1)
	group := make([]int32, len(m.Points)+1)
	for c := 0; c < nCells; c++ {
		t, conn := m.Cell(c)
		fs := cellFaces(t)
		faceStart[c+1] = faceStart[c] + int32(len(fs))
		for _, f := range fs {
			group[faceMin(f, conn)+1]++
		}
	}
	for p := 1; p < len(group); p++ {
		group[p] += group[p-1]
	}
	// Pass 2: file each face, as cell<<3 | face, under its smallest point,
	// in cell order. Filling advances group[p] to the end of p's faces.
	member := make([]uint32, faceStart[nCells])
	for c := 0; c < nCells; c++ {
		t, conn := m.Cell(c)
		for k, f := range cellFaces(t) {
			p := faceMin(f, conn)
			member[group[p]] = uint32(c)<<3 | uint32(k)
			group[p]++
		}
	}
	// Pass 3: a face is external when no other face under its point has
	// its key.
	external := make([]bool, len(member))
	nTris := 0
	var keys []faceKey
	lo := int32(0)
	for p := range m.Points {
		hi := group[p]
		keys = keys[:0]
		for _, mb := range member[lo:hi] {
			t, conn := m.Cell(int(mb >> 3))
			f := cellFaces(t)[mb&7]
			keys = append(keys, canonicalFace(f.n, conn[f.v[0]], conn[f.v[1]], conn[f.v[2]], conn[f.v[3]]))
		}
	next:
		for i, key := range keys {
			for j, other := range keys {
				if j != i && other == key {
					continue next
				}
			}
			mb := member[lo+int32(i)]
			c := mb >> 3
			external[faceStart[c]+int32(mb&7)] = true
			nTris += cellFaces(m.Types[c])[mb&7].n - 2
		}
		lo = hi
	}

	// Pass 4 walks the cells again, so the output order is theirs; a point
	// is numbered on first use and copied once all are known.
	out := &TriMesh{}
	if nTris == 0 {
		return out
	}
	out.Tris = make([][3]int32, 0, nTris)
	remap := make([]int32, len(m.Points)) // output id + 1; 0 = not used
	used := int32(0)
	mapPt := func(id int32) int32 {
		if remap[id] == 0 {
			used++
			remap[id] = used
		}
		return remap[id] - 1
	}
	for c := 0; c < nCells; c++ {
		t, conn := m.Cell(c)
		for k, f := range cellFaces(t) {
			if !external[faceStart[c]+int32(k)] {
				continue
			}
			a, b, cc := mapPt(conn[f.v[0]]), mapPt(conn[f.v[1]]), mapPt(conn[f.v[2]])
			out.Tris = append(out.Tris, [3]int32{a, b, cc})
			if f.n == 4 {
				d := mapPt(conn[f.v[3]])
				out.Tris = append(out.Tris, [3]int32{a, cc, d})
			}
		}
	}
	out.Points = make([]Vec3, used)
	out.Scalars = make([]float64, used)
	for id, r := range remap {
		if r != 0 {
			out.Points[r-1] = m.Points[id]
			out.Scalars[r-1] = m.Scalars[id]
		}
	}
	return out
}

// faceMin returns the smallest point id of face f of a cell with
// connectivity conn.
func faceMin(f faceDef, conn []int32) int32 {
	p := min(conn[f.v[0]], conn[f.v[1]], conn[f.v[2]])
	if f.n == 4 {
		p = min(p, conn[f.v[3]])
	}
	return p
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
