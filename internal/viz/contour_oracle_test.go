package viz_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/viz"
	"repro/internal/viz/contour"
	"repro/internal/viz/slice"
)

// The oracle of contour's and slice's surfaces is the per-cell emission
// they had before their points were named: each launch (an isovalue, a
// plane) walks every cell in order and writes every triangle of its six
// tetrahedra (Tet.Contour) on three fresh points; that launch's soup
// welded by position (WeldPointsPool at 1e-9, which keeps each
// position's first occurrence) is what the launch appends.

// contourSoup is one launch's per-cell emission: the iso-surface of field
// carrying carry, over the cells whose corners hold iso between them (a
// NaN corner is neither above nor below it).
func contourSoup(g *mesh.UniformGrid, field, carry []float64, iso float64) *mesh.TriMesh {
	s := &mesh.TriMesh{}
	var ts [6]viz.Tet
	cell := g.WalkCells(0)
	for ; cell.Cell < g.NumCells(); cell.Next() {
		if above, below := cell.Masks(field, iso, iso); above == 0 || below == 0 {
			continue
		}
		viz.CellTets(&cell, field, carry, &ts)
		for i := range ts {
			ts[i].Contour(iso, func(p0, p1, p2 mesh.Vec3, s0, s1, s2 float64) {
				n := int32(len(s.Points))
				s.Points = append(s.Points, p0, p1, p2)
				s.Scalars = append(s.Scalars, s0, s1, s2)
				s.Tris = append(s.Tris, [3]int32{n, n + 1, n + 2})
			})
		}
	}
	return s
}

// weldTris is m welded by position, its triangles in order.
func weldTris(m *mesh.TriMesh) *mesh.TriMesh {
	u := &mesh.UnstructuredMesh{Points: m.Points, Scalars: m.Scalars}
	for _, t := range m.Tris {
		u.Conn = append(u.Conn, t[:]...)
	}
	w := mesh.WeldPointsPool(u, 1e-9, nil)
	out := &mesh.TriMesh{Points: w.Points, Scalars: w.Scalars, Tris: make([][3]int32, len(m.Tris))}
	for i := range out.Tris {
		copy(out.Tris[i][:], w.Conn[3*i:])
	}
	return out
}

// appendTris appends m to out, renumbering its points.
func appendTris(out, m *mesh.TriMesh) {
	base := int32(len(out.Points))
	out.Points = append(out.Points, m.Points...)
	out.Scalars = append(out.Scalars, m.Scalars...)
	for _, t := range m.Tris {
		out.Tris = append(out.Tris, [3]int32{t[0] + base, t[1] + base, t[2] + base})
	}
}

// launches is the oracle of a run: each launch's soup welded, appended
// in launch order.
func launches(g *mesh.UniformGrid, fields [][]float64, carry []float64, isos []float64) *mesh.TriMesh {
	out := &mesh.TriMesh{}
	for i, iso := range isos {
		appendTris(out, weldTris(contourSoup(g, fields[i], carry, iso)))
	}
	return out
}

// sameTris reports the first difference between two surfaces, bit for
// bit, or "".
func sameTris(got, want *mesh.TriMesh) string {
	if len(got.Points) != len(want.Points) || len(got.Tris) != len(want.Tris) {
		return fmt.Sprintf("%d points, %d triangles; oracle %d, %d", len(got.Points), len(got.Tris), len(want.Points), len(want.Tris))
	}
	for i, p := range got.Points {
		q := want.Points[i]
		for k := range p {
			if math.Float64bits(p[k]) != math.Float64bits(q[k]) {
				return fmt.Sprintf("point %d = %v, oracle %v", i, p, q)
			}
		}
		if math.Float64bits(got.Scalars[i]) != math.Float64bits(want.Scalars[i]) {
			return fmt.Sprintf("scalar %d = %v, oracle %v", i, got.Scalars[i], want.Scalars[i])
		}
	}
	for i := range got.Tris {
		if got.Tris[i] != want.Tris[i] {
			return fmt.Sprintf("triangle %d = %v, oracle %v", i, got.Tris[i], want.Tris[i])
		}
	}
	return ""
}

// profileDigest hashes a run's two prices.
func profileDigest(res *viz.Result) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v %+v", res.Profile, res.DPP)
	return h.Sum64()
}

// The contour and slice pin's grids: the grids the parent recordings use
// (a sphere's distance field for contour, a smooth field cut by the
// centre planes for slice), a lattice field whose corners lie on integer
// isovalues, and boxes of unequal sides whose GrainFixed chunks straddle
// k-layers, with an offset origin and unequal spacing.
func pinGrids(t *testing.T) (names []string, grids []*mesh.UniformGrid) {
	add := func(name string, g *mesh.UniformGrid, err error, f func(id int) float64) {
		if err != nil {
			t.Fatal(err)
		}
		field := g.AddPointField("energy")
		for id := range field {
			field[id] = f(id)
		}
		names, grids = append(names, name), append(grids, g)
	}
	for _, n := range []int{16, 32} {
		g, err := mesh.NewCubeGrid(n)
		add(fmt.Sprintf("sphere %d", n), g, err, func(id int) float64 { return g.PointPosition(id).Sub(mesh.Vec3{0.5, 0.5, 0.5}).Norm() })
		g2, err := mesh.NewCubeGrid(n)
		add(fmt.Sprintf("smooth %d", n), g2, err, func(id int) float64 {
			p := g2.PointPosition(id)
			return p[0]*p[0] + p[1] + 2*p[2]
		})
	}
	g, err := mesh.NewCubeGrid(12)
	add("lattice 12", g, err, func(id int) float64 { i, j, k := g.PointIJK(id); return float64(i + j + k) })
	for _, dims := range [][3]int{{3, 3, 30}, {5, 3, 7}, {2, 9, 4}} {
		g, err := mesh.NewUniformGrid(dims, mesh.Vec3{0.1, -0.2, 0.3}, mesh.Vec3{0.25, 0.125, 0.0625})
		add(fmt.Sprintf("box %v", dims), g, err, func(id int) float64 { i, j, k := g.PointIJK(id); return float64((7*i + 3*j + 5*k) % 5) })
	}
	return names, grids
}

// Contour (both backends) and slice write each launch's soup welded by
// position, bit for bit, at 1, 2 and 4 workers, and price it as
// recorded (Profile and DPP, as when the soup was their output).
// Contour runs the ten default isovalues on the spheres and the smooth
// grids, and isovalues on the lattice's and the boxes' corner values
// besides; slice cuts the centre planes and a diagonal one.
func TestContourSliceMatchWeldOracle(t *testing.T) {
	// FNV-64a of "Profile DPP" per run: contour, contour-dpp, slice.
	recorded := map[string][3]uint64{
		"sphere 16":    {0x8431db842b275241, 0xf5e7f87b5f16c257, 0x3355a6f8f82cb292},
		"smooth 16":    {0xbe950c12fc60c440, 0xf15e818ac12d93c7, 0x3355a6f8f82cb292},
		"sphere 32":    {0x9587fbc5cee68f19, 0x8a0fa6ac32f4b607, 0xbc14c353d896678c},
		"smooth 32":    {0xdeab79f5be2d7abb, 0xdc3cf13b7440a5af, 0xbc14c353d896678c},
		"lattice 12":   {0x6eab072c209bce1a, 0x12704e2dbecb5bef, 0xb13234269495e7bf},
		"box [3 3 30]": {0xe5aa0dbccd42b2f0, 0xfca84c323665216f, 0xc6dc5ba494db60aa},
		"box [5 3 7]":  {0xa0a6f2dfcf8df06f, 0xfaa6ab00b616e32b, 0x1f13069a3f1c18eb},
		"box [2 9 4]":  {0x219e1fee64d6fd0e, 0xcfc1edf11c28c17f, 0xf682de41e1e2ca95},
	}
	names, grids := pinGrids(t)
	for gi, g := range grids {
		name := names[gi]
		field := g.PointField("energy")
		isos := []float64{1.5, 2, 3, 6, 17}
		if name[0] == 's' {
			lo, hi := mesh.FieldRange(field)
			isos = contour.SpreadIsovalues(lo, hi, 10)
		}
		planes := append(slice.DefaultPlanes(g.Bounds()), slice.Plane{Point: g.Bounds().Center(), Normal: mesh.Vec3{1, 1, 0}})
		dists := make([][]float64, len(planes))
		for i, pl := range planes {
			n := pl.Normal.Normalize()
			dists[i] = make([]float64, g.NumPoints())
			for id := range dists[i] {
				dists[i][id] = g.PointPosition(id).Sub(pl.Point).Dot(n)
			}
		}
		fields := make([][]float64, len(isos))
		for i := range fields {
			fields[i] = field
		}
		contourWant := launches(g, fields, field, isos)
		sliceWant := launches(g, dists, field, make([]float64, len(planes)))
		runs := []struct {
			f     viz.Filter
			want  *mesh.TriMesh
			which int
		}{
			{contour.New(contour.Options{Isovalues: isos}), contourWant, 0},
			{contour.New(contour.Options{Isovalues: isos, Backend: viz.DPP}), contourWant, 1},
			{slice.New(slice.Options{Planes: planes}), sliceWant, 2},
		}
		for _, nw := range []int{1, 2, 4} {
			pool := par.NewPool(nw)
			for _, r := range runs {
				res, err := r.f.Run(g, viz.NewExec(pool))
				if err != nil {
					t.Fatal(err)
				}
				if d := sameTris(res.Tris, r.want); d != "" {
					t.Errorf("%s, %s (run %d), %d workers: %s", name, r.f.Name(), r.which, nw, d)
				}
				if got, want := profileDigest(res), recorded[name][r.which]; got != want {
					t.Errorf("%s, %s (run %d), %d workers: prices digest %#x, recorded %#x", name, r.f.Name(), r.which, nw, got, want)
				}
			}
			pool.Close()
		}
	}
}
