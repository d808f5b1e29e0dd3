package viz

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/mesh"
)

// HexTets lists the 6-tetrahedron decomposition of a VTK-ordered
// hexahedron around the 0–6 diagonal. Every tetrahedron contains corners
// 0 and 6, so the six tets tile the cell exactly.
var HexTets = [6][4]int{
	{0, 1, 2, 6},
	{0, 2, 3, 6},
	{0, 3, 7, 6},
	{0, 7, 4, 6},
	{0, 4, 5, 6},
	{0, 5, 1, 6},
}

// Tet is a tetrahedron carrying, per corner, a position, the field being
// contoured or clipped against (D), and a second scalar carried through
// for coloring (S).
type Tet struct {
	P [4]mesh.Vec3
	D [4]float64
	S [4]float64
}

// Volume returns the (unsigned) volume of the tetrahedron.
func (t Tet) Volume() float64 {
	a := t.P[1].Sub(t.P[0])
	b := t.P[2].Sub(t.P[0])
	c := t.P[3].Sub(t.P[0])
	return math.Abs(a.Dot(b.Cross(c))) / 6
}

// edgeLerp returns the point, carried scalar, and parameter u where the D
// field crosses iso on the edge from corner i to corner j. An infinite
// endpoint value puts the crossing at the other endpoint, the limit of u
// as that value grows (Inf/Inf would be NaN); two infinite ones put it
// at the midpoint, as a flat or NaN edge does.
func (t Tet) edgeLerp(i, j int, iso float64) (mesh.Vec3, float64, float64) {
	d0, d1 := t.D[i], t.D[j]
	den := d1 - d0
	u := 0.5
	if math.Abs(den) > 1e-300 {
		u = (iso - d0) / den
	}
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	if u != u {
		u = 0.5
		if !math.IsInf(d1, 0) {
			u = 1
		}
	}
	p := t.P[i].Lerp(t.P[j], u)
	s := t.S[i] + u*(t.S[j]-t.S[i])
	return p, s, u
}

// TriEmit receives one contour triangle: positions and carried scalars.
type TriEmit func(p0, p1, p2 mesh.Vec3, s0, s1, s2 float64)

// Contour emits the iso-surface triangles of D = iso inside the
// tetrahedron (marching tetrahedra: 0, 1, or 2 triangles). Corners with
// D >= iso count as "inside". Triangle winding is not normalized; the
// consumers here shade double-sided.
func (t Tet) Contour(iso float64, emit TriEmit) int {
	var inside, outside [4]int
	ni, no := 0, 0
	for c := 0; c < 4; c++ {
		if t.D[c] >= iso {
			inside[ni] = c
			ni++
		} else {
			outside[no] = c
			no++
		}
	}
	switch ni {
	case 0, 4:
		return 0
	case 1, 3:
		// One corner separated from the other three: one triangle on the
		// three edges incident to the lone corner.
		lone := inside[0]
		others := outside
		if ni == 3 {
			lone = outside[0]
			others = inside
		}
		p0, s0, _ := t.edgeLerp(lone, others[0], iso)
		p1, s1, _ := t.edgeLerp(lone, others[1], iso)
		p2, s2, _ := t.edgeLerp(lone, others[2], iso)
		emit(p0, p1, p2, s0, s1, s2)
		return 1
	default: // 2–2 split: a quad, two triangles.
		a, b := inside[0], inside[1]
		c, d := outside[0], outside[1]
		pac, sac, _ := t.edgeLerp(a, c, iso)
		pad, sad, _ := t.edgeLerp(a, d, iso)
		pbd, sbd, _ := t.edgeLerp(b, d, iso)
		pbc, sbc, _ := t.edgeLerp(b, c, iso)
		emit(pac, pad, pbd, sac, sad, sbd)
		emit(pac, pbd, pbc, sac, sbd, sbc)
		return 2
	}
}

// ClipTet is a Tet whose corners also say which point of the output they
// are (V), so that clip and isovolume number their output points by
// identity instead of by position. Contour's tetrahedra do not carry it.
type ClipTet struct {
	Tet
	V [4]Vertex
}

// wedgeToTets appends the 3-tet decomposition of a wedge given its six
// corners (bottom triangle w0 w1 w2, top triangle w3 w4 w5, with wi and
// wi+3 joined by quads).
func wedgeToTets(out []ClipTet, p [6]mesh.Vec3, d, s [6]float64, v [6]Vertex) []ClipTet {
	idx := [3][4]int{{0, 1, 2, 3}, {1, 2, 3, 4}, {2, 3, 4, 5}}
	for _, ix := range idx {
		var t ClipTet
		for k, i := range ix {
			t.P[k], t.D[k], t.S[k], t.V[k] = p[i], d[i], s[i], v[i]
		}
		out = append(out, t)
	}
	return out
}

// snapU is how close to 0 or 1 a crossing's u may be and still land on
// the endpoint. An endpoint value equal to the level but for rounding (a
// range bound computed from the field's extremes, a distance that is the
// radius) leaves u a few ulps of the field's step along the edge away
// from 0 or 1, and the point within an ulp of the grid point; 2^-40
// covers that, and puts the point within 2^-40 of an edge of the grid
// point, below the 1e-9 a position weld merges within.
const snapU = 0x1p-40

// cut is edgeLerp that also names the crossing and gives its D: the
// endpoint it lands on (u within snapU of 0 or 1), or else the cut of the
// two endpoints at level (cutLo or cutHi), at D = iso. Which endpoint a
// crossing snaps to does not depend on the direction the edge is walked
// in. An infinite endpoint puts the crossing on the other end, and the
// point is that corner, its value included: a later cut from it is the
// corner's own, not one from a point at iso.
func (t *ClipTet) cut(i, j int, iso float64, level Vertex) (mesh.Vec3, float64, float64, Vertex) {
	switch {
	case math.IsInf(t.D[j], 0) && !math.IsInf(t.D[i], 0) && t.D[i] == t.D[i]:
		return t.P[i], t.D[i], t.S[i], t.V[i]
	case math.IsInf(t.D[i], 0) && !math.IsInf(t.D[j], 0) && t.D[j] == t.D[j]:
		return t.P[j], t.D[j], t.S[j], t.V[j]
	}
	p, s, u := t.edgeLerp(i, j, iso)
	switch {
	case u <= snapU:
		return p, iso, s, t.V[i]
	case u >= 1-snapU:
		return p, iso, s, t.V[j]
	}
	return p, iso, s, joinVertices(t.V[i], t.V[j], level)
}

// ClipAbove appends to out the tetrahedra covering the part of t where
// D >= iso (the "kept" half-space). It returns the extended slice. The
// result is 0 tets (entirely below), 1 (entirely above or a corner), or 3
// (a wedge decomposed). The cuts it makes are first-level vertices.
func (t ClipTet) ClipAbove(iso float64, out []ClipTet) []ClipTet {
	return t.clipAbove(iso, cutLo, out)
}

func (t ClipTet) clipAbove(iso float64, level Vertex, out []ClipTet) []ClipTet {
	var kept, cut [4]int
	nk, nc := 0, 0
	for c := 0; c < 4; c++ {
		if t.D[c] >= iso {
			kept[nk] = c
			nk++
		} else {
			cut[nc] = c
			nc++
		}
	}
	switch nk {
	case 0:
		return out
	case 4:
		return append(out, t)
	case 1:
		// A small tet at the kept corner.
		a := kept[0]
		var nt ClipTet
		nt.P[0], nt.D[0], nt.S[0], nt.V[0] = t.P[a], t.D[a], t.S[a], t.V[a]
		for k := 0; k < 3; k++ {
			nt.P[k+1], nt.D[k+1], nt.S[k+1], nt.V[k+1] = t.cut(a, cut[k], iso, level)
		}
		return append(out, nt)
	case 3:
		// Tet minus the corner at the cut vertex: a wedge whose bottom
		// triangle sits on the cut plane.
		a := cut[0]
		var p [6]mesh.Vec3
		var d, s [6]float64
		var v [6]Vertex
		for k := 0; k < 3; k++ {
			p[k], d[k], s[k], v[k] = t.cut(a, kept[k], iso, level)
			b := kept[k]
			p[k+3], d[k+3], s[k+3], v[k+3] = t.P[b], t.D[b], t.S[b], t.V[b]
		}
		return wedgeToTets(out, p, d, s, v)
	default: // nk == 2: a wedge between the kept edge and the cut plane.
		a, b := kept[0], kept[1]
		c, d0 := cut[0], cut[1]
		var p [6]mesh.Vec3
		var d, s [6]float64
		var v [6]Vertex
		p[0], d[0], s[0], v[0] = t.P[a], t.D[a], t.S[a], t.V[a]
		p[1], d[1], s[1], v[1] = t.cut(a, c, iso, level)
		p[2], d[2], s[2], v[2] = t.cut(a, d0, iso, level)
		p[3], d[3], s[3], v[3] = t.P[b], t.D[b], t.S[b], t.V[b]
		p[4], d[4], s[4], v[4] = t.cut(b, c, iso, level)
		p[5], d[5], s[5], v[5] = t.cut(b, d0, iso, level)
		return wedgeToTets(out, p, d, s, v)
	}
}

// ClipBelow appends the tetrahedra covering the part of t where D <= iso.
// The cuts it makes are second-level vertices: isovolume clips each
// piece of ClipAbove(lo) below hi.
func (t ClipTet) ClipBelow(iso float64, out []ClipTet) []ClipTet {
	neg := t
	for c := 0; c < 4; c++ {
		neg.D[c] = -neg.D[c]
	}
	start := len(out)
	out = neg.clipAbove(-iso, cutHi, out)
	// Restore the original field sign on the pieces.
	for i := start; i < len(out); i++ {
		for c := 0; c < 4; c++ {
			out[i].D[c] = -out[i].D[c]
		}
	}
	return out
}

// CellTets fills ts with the 6-tet decomposition of the walk's current
// cell, with D taken from field (a point field) and S from carry (may
// equal field).
func CellTets(cell *mesh.CellWalk, field, carry []float64, ts *[6]Tet) {
	var pos [8]mesh.Vec3
	var dv, sv [8]float64
	for c := 0; c < 8; c++ {
		pid := cell.Point(c)
		pos[c] = cell.Corner(c)
		dv[c] = field[pid]
		sv[c] = carry[pid]
	}
	for i, tet := range HexTets {
		for k, corner := range tet {
			ts[i].P[k] = pos[corner]
			ts[i].D[k] = dv[corner]
			ts[i].S[k] = sv[corner]
		}
	}
}

// CellClipTets is CellTets for clipping: each tetrahedron's corners also
// name the cell corners they are.
func CellClipTets(cell *mesh.CellWalk, field, carry []float64, ts *[6]ClipTet) {
	var plain [6]Tet
	CellTets(cell, field, carry, &plain)
	for i, tet := range HexTets {
		ts[i].Tet = plain[i]
		for k, corner := range tet {
			ts[i].V[k] = Vertex(corner)
		}
	}
}

// Vertex says which point a clipped tetrahedron's corner is, relative to
// the cell it was cut from. Every point clip and isovolume emit is one of
// four kinds:
//
//   - a corner c of the cell (the grid point);
//   - a cut at the first level (clip's sphere, isovolume's lo) on the
//     edge (a, b) of one of the cell's tetrahedra;
//   - a cut at the second level (isovolume's hi) on such an edge;
//   - a second-level cut on the segment from the first-level cut of edge
//     (a, b) to corner c, which the first clip's wedges create.
//
// A crossing that lands on an endpoint (see cut) is that endpoint, and a
// second-level cut on the segment from edge (a, b)'s first-level cut to
// a or b is the second-level cut of (a, b) itself, so one point has one
// name. Key turns the name into the point's mesh.Key, which is
// the same from every cell that emits the point. The bits are
// kind<<9 | a<<6 | b<<3 | c, with a < b.
type Vertex uint16

// The vertex kinds.
const (
	corner Vertex = iota << 9
	cutLo
	cutHi
	cutHiOnLo
	kindMask = 3 << 9
)

// joinVertices names the cut at level (cutLo or cutHi) between two
// vertices: two corners make an edge cut, and a second-level cut from an
// edge's first-level cut to a corner is a cutHiOnLo, or the edge's own
// second-level cut when the corner ends that edge.
func joinVertices(v, w Vertex, level Vertex) Vertex {
	if v == w {
		// A wedge edge of zero length: a cut snapped onto a corner (the
		// finite end of an infinite edge) and the corner itself, with
		// different values.
		return v
	}
	if v&kindMask != corner {
		v, w = w, v
	}
	switch {
	case v&kindMask == corner && w&kindMask == corner:
		a, b := v&7, w&7
		return level | min(a, b)<<6 | max(a, b)<<3
	case v&kindMask == corner && w&kindMask == cutLo && level == cutHi:
		c, edge := v&7, w&^kindMask
		if c == edge>>6 || c == edge>>3&7 {
			return cutHi | edge
		}
		return cutHiOnLo | edge | c
	}
	panic(fmt.Sprintf("viz: no cut between clip vertices %#x and %#x", v, w))
}

// Key returns the key of the point v names in the walk's current cell:
// its slot at the grid point the slot is relative to (see ClipSlots).
// The first level leaves a quad of a triangle face whose two far corners
// are kept, and a tetrahedron cuts the second level along one of the
// quad's diagonals, its neighbour across the face perhaps along the
// other. Where the second level's line passes through the diagonals'
// crossing the two cuts are one point, the face's: field, lo and hi
// (isovolume's range) decide that.
func (v Vertex) Key(cell *mesh.CellWalk, field []float64, lo, hi float64) mesh.Key {
	k := vertexKeys[v]
	if v&kindMask == cutHiOnLo {
		a, b, x := field[cell.Point(int(v>>6&7))], field[cell.Point(int(v>>3&7))], field[cell.Point(int(v&7))]
		if a < lo {
			a, b = b, a
		}
		if diagonalsMeet(a, x, b, lo, hi) {
			k = faceKeys[v]
		}
	}
	return mesh.PointKey(cell.Point(int(k.base)), int(k.slot))
}

// diagonalsMeet reports whether the second-level cuts on the two
// diagonals of the quad a triangle face keeps above lo are one point (to
// within snapU, in the face's barycentric coordinates): corners k and x,
// valued dk and dx, kept, corner c, valued dc, cut. The test is the same
// with k and x swapped, as it is seen from the face's other side.
func diagonalsMeet(dk, dx, dc, lo, hi float64) bool {
	u1 := (hi - lo) / (dx - lo) // along the diagonal from k's edge cut to x
	u2 := (hi - lo) / (dk - lo) // along the one from x's edge cut to k
	ak := (lo - dk) / (dc - dk)
	ax := (lo - dx) / (dc - dx)
	return math.Abs(u2-(1-u1)*(1-ak)) <= snapU && math.Abs(u1-(1-u2)*(1-ax)) <= snapU
}

// A point's slot at a grid point p: 0 is p itself; 1 + d a first-level
// cut on the lattice edge from p in the d-th of the seven positive
// directions the 0–6 decomposition's edges take, so that an edge has one
// base point and one direction in every cell that contains it; 8 + d a
// second-level cut on that edge; 15 + i a second-level cut from the
// first-level cut of such an edge to a grid point at an offset from p,
// in the i-th of the 36 (direction, offset) pairs the decomposition's
// tetrahedra hold; 51 + f the second-level point where a face's two
// diagonal cuts meet, on the f-th of the 12 triangle faces based at p.
var (
	vertexKeys, faceKeys [1 << 11]struct{ base, slot uint8 }
	// ClipSlots are the slots clip emits (grid points and first-level
	// cuts), IsovolumeSlots all of them.
	ClipSlots, IsovolumeSlots mesh.KeySlots
)

func init() {
	ijk := [8][3]int{{0, 0, 0}, {1, 0, 0}, {1, 1, 0}, {0, 1, 0}, {0, 0, 1}, {1, 0, 1}, {1, 1, 1}, {0, 1, 1}}
	sub := func(a, b int) [3]int {
		return [3]int{ijk[a][0] - ijk[b][0], ijk[a][1] - ijk[b][1], ijk[a][2] - ijk[b][2]}
	}
	below := func(a, b int) bool { d := sub(b, a); return d[0] >= 0 && d[1] >= 0 && d[2] >= 0 }
	var dirs [][3]int
	var pairs [][2][3]int
	var faces [][2][3]int
	flat := uint64(1) // slots whose points lie in their grid point's k-plane
	for _, t := range HexTets {
		for i := range t {
			for j := i + 1; j < 4; j++ {
				a, b := min(t[i], t[j]), max(t[i], t[j])
				base := a
				if !below(a, b) {
					base = b
				}
				d := sub(a+b-base, base)
				di := slices.Index(dirs, d)
				if di < 0 {
					di = len(dirs)
					dirs = append(dirs, d)
				}
				edge := Vertex(a<<6 | b<<3)
				vertexKeys[cutLo|edge] = struct{ base, slot uint8 }{uint8(base), uint8(1 + di)}
				vertexKeys[cutHi|edge] = struct{ base, slot uint8 }{uint8(base), uint8(8 + di)}
				if d[2] == 0 {
					flat |= 1<<(1+di) | 1<<(8+di)
				}
				for _, c := range t {
					if c == a || c == b {
						continue
					}
					pair := [2][3]int{d, sub(c, base)}
					pi := slices.Index(pairs, pair)
					if pi < 0 {
						pi = len(pairs)
						pairs = append(pairs, pair)
					}
					vertexKeys[cutHiOnLo|edge|Vertex(c)] = struct{ base, slot uint8 }{uint8(base), uint8(15 + pi)}
					if d[2] == 0 && pair[1][2] == 0 {
						flat |= 1 << (15 + pi)
					}
				}
			}
		}
	}
	// The faces: a triangle's corners are ordered componentwise, so its
	// base is the lowest; its type is the offsets of the other two.
	for _, t := range HexTets {
		for o := range t {
			var tri []int
			for k, c := range t {
				if k != o {
					tri = append(tri, c)
				}
			}
			slices.SortFunc(tri, func(p, q int) int {
				if below(p, q) {
					return -1
				}
				return 1
			})
			face := [2][3]int{sub(tri[1], tri[0]), sub(tri[2], tri[0])}
			fi := slices.Index(faces, face)
			if fi < 0 {
				fi = len(faces)
				faces = append(faces, face)
			}
			slot := 15 + len(pairs) + fi
			if face[0][2] == 0 && face[1][2] == 0 {
				flat |= 1 << slot
			}
			for k, x := range tri {
				e := slices.Delete(slices.Clone(tri), k, k+1)
				a, b := min(e[0], e[1]), max(e[0], e[1])
				faceKeys[cutHiOnLo|Vertex(a<<6|b<<3|x)] = struct{ base, slot uint8 }{uint8(tri[0]), uint8(slot)}
			}
		}
	}
	for c := range 8 {
		vertexKeys[corner|Vertex(c)] = struct{ base, slot uint8 }{uint8(c), 0}
	}
	ClipSlots = mesh.KeySlots{N: 8, Flat: flat & 0xFF}
	IsovolumeSlots = mesh.KeySlots{N: 15 + len(pairs) + len(faces), Flat: flat}
}

// Emit writes t through kw as a tetrahedral cell of the walk's current
// cell, its corners named by their keys (field, lo and hi as Key takes
// them; clip makes no second-level cuts and passes none).
func (t *ClipTet) Emit(kw *mesh.KeyWindow, cell *mesh.CellWalk, field []float64, lo, hi float64) {
	var conn [4]int32
	for c := range conn {
		conn[c] = kw.Point(t.V[c].Key(cell, field, lo, hi), t.P[c], t.S[c])
	}
	kw.Cell(mesh.Tet, conn[:]...)
}
