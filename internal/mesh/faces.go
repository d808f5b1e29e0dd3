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

// faceCount is one slot of ExternalFaces' open-addressed table: a face and
// the number of cells it belongs to (zero marks a free slot).
type faceCount struct {
	key faceKey
	n   int32
}

// ExternalFaces extracts the boundary surface of an unstructured mesh: all
// faces that belong to exactly one cell, triangulated (quads split along
// the 0-2 diagonal), in cell order. The output references a compacted copy
// of the points actually used by the surface, carrying their scalars.
//
// This is the "gather triangles and find external faces" stage the paper
// identifies as the data-intensive part of its ray-tracing workload.
func ExternalFaces(m *UnstructuredMesh) *TriMesh {
	nFaces := 0
	for _, t := range m.Types {
		nFaces += len(cellFaces(t))
	}
	// Pass 1 counts every face in a linear-probed table at most half full
	// and remembers each face's slot, so pass 2 does not look it up again.
	// A face's home slot is its smallest point id scaled to the table: point
	// ids follow cell order in the meshes the filters emit, so the walk
	// streams through the table instead of missing cache on every face (a
	// hashed home slot cost 3x at 64k cells). The faces that share a
	// smallest point probe past each other, a handful per point.
	size := 2
	for size < 2*nFaces {
		size <<= 1
	}
	table := make([]faceCount, size)
	mask := uint32(size - 1)
	scale := uint64(size) << 31 / uint64(max(len(m.Points), 1))
	slots := make([]uint32, 0, nFaces)
	for c := 0; c < m.NumCells(); c++ {
		t, conn := m.Cell(c)
		for _, f := range cellFaces(t) {
			key := canonicalFace(f.n, conn[f.v[0]], conn[f.v[1]], conn[f.v[2]], conn[f.v[3]])
			h := uint32(uint64(key[0])*scale>>31) & mask
			for table[h].n != 0 && table[h].key != key {
				h = (h + 1) & mask
			}
			table[h].key = key
			table[h].n++
			slots = append(slots, h)
		}
	}

	out := &TriMesh{}
	remap := make([]int32, len(m.Points)) // output id + 1; 0 = not yet used
	mapPt := func(id int32) int32 {
		if remap[id] == 0 {
			out.Points = append(out.Points, m.Points[id])
			out.Scalars = append(out.Scalars, m.Scalars[id])
			remap[id] = int32(len(out.Points))
		}
		return remap[id] - 1
	}
	// Pass 2 walks the cells again, so the output order is theirs.
	slot := 0
	for c := 0; c < m.NumCells(); c++ {
		t, conn := m.Cell(c)
		for _, f := range cellFaces(t) {
			external := table[slots[slot]].n == 1
			slot++
			if !external {
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
