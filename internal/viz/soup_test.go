package viz

import (
	"math"

	"repro/internal/mesh"
)

// The per-cell soup emission contour had before its crossings were
// named: the oracle of the contour and slice pin (contour_oracle_test.go)
// and of the tetrahedron tests.

// CellTets fills ts with the 6-tet decomposition of the walk's current
// cell, with D taken from field (a point field) and S from carry (may
// equal field).
func CellTets(cell *mesh.CellWalk, field, carry []float64, ts *[6]Tet) {
	var cts [6]ClipTet
	CellClipTets(cell, field, carry, &cts)
	for i := range ts {
		ts[i] = cts[i].Tet
	}
}

// edgeLerp returns the point, carried scalar, and parameter u where the D
// field crosses iso on the edge from corner i to corner j (edgeU); at the
// finite end of an infinite edge they are that corner's own, and carried
// ends at opposite infinities give opposedCarry's scalar.
func (t *Tet) edgeLerp(i, j int, iso float64) (mesh.Vec3, float64, float64) {
	if k, ok := t.finiteEnd(i, j); ok {
		u := 0.0
		if k == j {
			u = 1
		}
		return t.P[k], t.S[k], u
	}
	u := t.edgeU(i, j, iso)
	s := t.S[i] + u*(t.S[j]-t.S[i])
	if s != s && math.IsInf(t.S[i], 0) && t.S[j] == -t.S[i] {
		s = t.opposedCarry(i, j, u, iso)
	}
	return t.P[i].Lerp(t.P[j], u), s, u
}

// TriEmit receives one contour triangle: positions and carried scalars.
type TriEmit func(p0, p1, p2 mesh.Vec3, s0, s1, s2 float64)

// Contour emits the iso-surface triangles of D = iso inside the
// tetrahedron (marching tetrahedra: 0, 1, or 2 triangles), each on three
// fresh points. Corners with D >= iso count as "inside".
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
