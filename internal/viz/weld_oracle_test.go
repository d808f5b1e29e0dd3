package viz_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/viz"
	"repro/internal/viz/clip"
	"repro/internal/viz/contour"
	"repro/internal/viz/isovolume"
	"repro/internal/viz/slice"
	"repro/internal/viz/threshold"
)

// The oracle for the key weld of clip, isovolume and threshold is the
// pipeline they had before it: every kept hex corner and every piece point written per
// cell, in cell order, into one soup, then welded by position
// (WeldPointsPool at 1e-9), which keeps each position's first
// occurrence.

// soup collects the per-cell emission. points counts it as the filters
// price it: four points a piece, and a whole hex's corners once per
// GrainFixed chunk of cells.
type soup struct {
	m      *mesh.UnstructuredMesh
	points uint64
}

func (s *soup) cell(t mesh.CellType, p []mesh.Vec3, sc []float64) {
	m := s.m
	for i := range p {
		m.Conn = append(m.Conn, int32(len(m.Points)))
		m.Points = append(m.Points, p[i])
		m.Scalars = append(m.Scalars, sc[i])
	}
	m.Types = append(m.Types, t)
	m.Offsets = append(m.Offsets, int32(len(m.Conn)))
}

// oracleCells runs the serial per-cell emission over g with D from field
// and S from carry: cells whole when whole says so, dropped when drop
// does, and otherwise cut into the pieces clip returns for each of the
// six tets. It returns the welded soup and the soup's priced point count.
func oracleCells(g *mesh.UniformGrid, field, carry []float64, drop, whole func(ge, le uint8) bool, lo, hi float64,
	clip func(t viz.ClipTet) []viz.ClipTet) (*mesh.UnstructuredMesh, uint64) {
	s := soup{m: mesh.NewUnstructuredMesh()}
	var ts [6]viz.ClipTet
	grain := par.GrainFixed(g.NumCells())
	seen := map[int]bool{} // the current GrainFixed chunk's hex corners
	cell := g.WalkCells(0)
	for ; cell.Cell < g.NumCells(); cell.Next() {
		if cell.Cell%grain == 0 {
			clear(seen)
		}
		switch ge, le := cell.Masks(field, lo, hi); {
		case drop(ge, le):
		case whole(ge, le):
			var p [8]mesh.Vec3
			var sc [8]float64
			for c := range p {
				p[c], sc[c] = cell.Corner(c), carry[cell.Point(c)]
				if !seen[cell.Point(c)] {
					seen[cell.Point(c)] = true
					s.points++
				}
			}
			s.cell(mesh.Hex, p[:], sc[:])
		default:
			viz.CellClipTets(&cell, field, carry, &ts)
			for _, t := range ts {
				for _, piece := range clip(t) {
					s.cell(mesh.Tet, piece.P[:], piece.S[:])
					s.points += 4
				}
			}
		}
	}
	return mesh.WeldPointsPool(s.m, 1e-9, nil), s.points
}

// oracleClip is clip.Filter.Run's output by the soup and weld, and the
// soup's priced point count.
func oracleClip(g *mesh.UniformGrid, carry []float64, center mesh.Vec3, radius float64) (*mesh.UnstructuredMesh, uint64) {
	if center == (mesh.Vec3{}) {
		center = g.Bounds().Center()
	}
	if radius <= 0 {
		radius = 0.3 * g.Bounds().Diagonal()
	}
	dist := make([]float64, g.NumPoints())
	for id := range dist {
		dist[id] = g.PointPosition(id).Sub(center).Norm() - radius
	}
	return oracleCells(g, dist, carry,
		func(_, below uint8) bool { return below == 0xFF },
		func(above, _ uint8) bool { return above == 0xFF }, 0, 0,
		func(t viz.ClipTet) []viz.ClipTet { return t.ClipAbove(0, nil) })
}

// oracleThreshold is threshold.Filter.Run's output by the soup and weld:
// every cell whose value in cells lies in [lo, hi], whole, its corners
// carrying carry.
func oracleThreshold(g *mesh.UniformGrid, cells, carry []float64, lo, hi float64) *mesh.UnstructuredMesh {
	s := soup{m: mesh.NewUnstructuredMesh()}
	cell := g.WalkCells(0)
	for ; cell.Cell < g.NumCells(); cell.Next() {
		if v := cells[cell.Cell]; v >= lo && v <= hi {
			var p [8]mesh.Vec3
			var sc [8]float64
			for c := range p {
				p[c], sc[c] = cell.Corner(c), carry[cell.Point(c)]
			}
			s.cell(mesh.Hex, p[:], sc[:])
		}
	}
	return mesh.WeldPointsPool(s.m, 1e-9, nil)
}

// oracleIsovolume is isovolume.Filter.Run's output by the soup and weld,
// and the soup's priced point count.
func oracleIsovolume(g *mesh.UniformGrid, field []float64, lo, hi float64) (*mesh.UnstructuredMesh, uint64) {
	if lo == 0 && hi == 0 {
		fmin, fmax := mesh.FieldRange(field)
		lo = fmin + 0.4*(fmax-fmin)
		hi = fmin + 0.9*(fmax-fmin)
	}
	return oracleCells(g, field, field,
		func(ge, le uint8) bool { return ge == 0 || le == 0 },
		func(ge, le uint8) bool { return ge == 0xFF && le == 0xFF }, lo, hi,
		func(t viz.ClipTet) (kept []viz.ClipTet) {
			for _, a := range t.ClipAbove(lo, nil) {
				kept = a.ClipBelow(hi, kept)
			}
			return kept
		})
}

// sameCells reports the first difference between two meshes, bit for
// bit, or "".
func sameCells(got, want *mesh.UnstructuredMesh) string {
	if len(got.Points) != len(want.Points) || len(got.Types) != len(want.Types) || len(got.Conn) != len(want.Conn) {
		return fmt.Sprintf("%d points, %d cells, %d connectivity entries; oracle %d, %d, %d",
			len(got.Points), len(got.Types), len(got.Conn), len(want.Points), len(want.Types), len(want.Conn))
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
	for i := range got.Types {
		if got.Types[i] != want.Types[i] || got.Offsets[i+1] != want.Offsets[i+1] {
			return fmt.Sprintf("cell %d is %v ending at %d, oracle %v ending at %d", i, got.Types[i], got.Offsets[i+1], want.Types[i], want.Offsets[i+1])
		}
	}
	for j := range got.Conn {
		if got.Conn[j] != want.Conn[j] {
			return fmt.Sprintf("connectivity entry %d = %d, oracle %d", j, got.Conn[j], want.Conn[j])
		}
	}
	return ""
}

// fuzzGrid builds the grid and knobs a fuzz input describes. Shape 0 is
// the grids the parent recordings use (16³ or 32³: a linear field cut by
// an off-centre sphere, a radial one by the default range). Otherwise
// the grid has 1–16 cells a side — the sizes whose GrainFixed chunks
// straddle k-layers among them — and a field of small integers read from
// values, where byte 0xFD is NaN, 0xFE −Inf and 0xFF +Inf (one byte
// repeated is a constant field). Its isovolume range has half-integer
// bounds, and its sphere is centred on a grid point or a half-way point
// with a radius that is the distance to a grid point, computed as the
// filter computes distances, so that corners sit on lo, hi and the
// sphere.
func fuzzGrid(t *testing.T, shape, size, a, b, c uint8, values []byte) (g *mesh.UniformGrid, center mesh.Vec3, radius, lo, hi float64) {
	n := []int{1, 2, 4, 8, 16, 3, 10, 12, 6}[size%9]
	if shape%2 == 0 {
		n = 16 << (size % 2)
	}
	g, err := mesh.NewCubeGrid(n)
	if err != nil {
		t.Fatal(err)
	}
	f := g.AddPointField("energy")
	for id := range f {
		p := g.PointPosition(id)
		switch {
		case shape%2 == 0 && a%2 == 0:
			f[id] = p[0] + p[1] + p[2]
		case shape%2 == 0:
			x, y, z := p[0]-0.4, p[1]-0.5, p[2]-0.6
			f[id] = x*x + y*y + z*z
		case len(values) == 0:
		default:
			switch v := values[id%len(values)]; v {
			case 0xFD:
				f[id] = math.NaN()
			case 0xFE:
				f[id] = math.Inf(-1)
			case 0xFF:
				f[id] = math.Inf(1)
			default:
				f[id] = float64(v % 5)
			}
		}
	}
	if shape%2 == 0 {
		return g, mesh.Vec3{0.45, 0.5, 0.55}, 0.3, 0, 0
	}
	h := 1 / float64(2*n)
	center = mesh.Vec3{float64(a%byte(2*n+1)) * h, float64(b%byte(2*n+1)) * h, float64(c%byte(2*n+1)) * h}
	radius = g.PointPosition(int(c) * 7 % g.NumPoints()).Sub(center).Norm()
	lo = float64(a%9) / 2
	hi = lo + float64(b%5)/2
	return g, center, radius, lo, hi
}

// Clip and isovolume equal the soup-and-weld oracle bit for bit (points,
// scalars, cell types, offsets, connectivity) at 1, 2 and 4 workers, and
// price the soup's point count. The committed corpus holds the recorded
// grids, lattice fields with corners on lo, hi and the sphere, constant
// fields, ±Inf and NaN fields, and grids whose GrainFixed chunks straddle
// k-layers.
func FuzzClipIsovolumeMatchesWeldOracle(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), []byte(nil))
	f.Fuzz(func(t *testing.T, shape, size, a, b, c uint8, values []byte) {
		g, center, radius, lo, hi := fuzzGrid(t, shape, size, a, b, c, values)
		field := g.PointField("energy")
		filters := []viz.Filter{clip.New(clip.Options{Center: center, Radius: radius})}
		clipWant, clipSoup := oracleClip(g, field, center, radius)
		wants, soups := []*mesh.UnstructuredMesh{clipWant}, []uint64{clipSoup}
		if shape%2 == 1 || a%2 == 1 {
			isoWant, isoSoup := oracleIsovolume(g, field, lo, hi)
			filters = append(filters, isovolume.New(isovolume.Options{Lo: lo, Hi: hi}))
			wants, soups = append(wants, isoWant), append(soups, isoSoup)
		}
		for _, nw := range []int{1, 2, 4} {
			pool := par.NewPool(nw)
			for i, f := range filters {
				res, err := f.Run(g, viz.NewExec(pool))
				if err != nil {
					t.Fatal(err)
				}
				if d := sameCells(res.Cells, wants[i]); d != "" {
					t.Errorf("%s, %d workers: %s", f.Name(), nw, d)
				}
				// ClipEmitCost is the one term with random accesses: one
				// per soup point.
				if got := res.Profile.RandomAccesses; got != soups[i] {
					t.Errorf("%s, %d workers: priced %d soup points, the soup has %d", f.Name(), nw, got, soups[i])
				}
			}
			pool.Close()
		}
	})
}

func first(m *mesh.UnstructuredMesh, _ uint64) *mesh.UnstructuredMesh { return m }

// nonFiniteGrid is an 8³ grid whose field is x, with every 13th point
// +Inf or −Inf and every 17th NaN, or a constant field.
func nonFiniteGrid(t *testing.T, constant bool) *mesh.UniformGrid {
	g, err := mesh.NewCubeGrid(8)
	if err != nil {
		t.Fatal(err)
	}
	f := g.AddPointField("energy")
	for id := range f {
		switch {
		case constant:
			f[id] = 0.5
		case id%26 == 0:
			f[id] = math.Inf(1)
		case id%13 == 0:
			f[id] = math.Inf(-1)
		case id%17 == 0:
			f[id] = math.NaN()
		default:
			f[id] = g.PointPosition(id)[0]
		}
	}
	return g
}

// A crossing on an edge with an infinite end lies at the finite end (the
// limit of u), so no position is NaN: before, edgeLerp computed Inf/Inf.
// Clip and slice carry the values as scalars only; isovolume cuts them,
// and contour carries them, so its crossing at a finite end carries that
// end's value, not 0·Inf, and one between −Inf and +Inf its isovalue,
// not NaN. The output is still the oracle's.
func TestClipIsovolumeWriteFinitePositions(t *testing.T) {
	for _, constant := range []bool{false, true} {
		g := nonFiniteGrid(t, constant)
		field := g.PointField("energy")
		// The finite values' range, which contour's default isovalues
		// spread over.
		lo, hi := 0.0, 1.0
		if constant {
			lo, hi = 0.5, 0.5
		}
		isos := [][]float64{{0.3, 0.5, 0.7}, contour.SpreadIsovalues(lo, hi, 10)}
		planes := slice.DefaultPlanes(g.Bounds())
		dists := make([][]float64, len(planes))
		for i, pl := range planes {
			n := pl.Normal.Normalize()
			dists[i] = make([]float64, g.NumPoints())
			for id := range dists[i] {
				dists[i][id] = g.PointPosition(id).Sub(pl.Point).Dot(n)
			}
		}
		repeat := func(n int) [][]float64 {
			fields := make([][]float64, n)
			for i := range fields {
				fields[i] = field
			}
			return fields
		}
		pool := par.NewPool(2)
		for _, c := range []struct {
			f        viz.Filter
			want     *mesh.UnstructuredMesh
			wantTris *mesh.TriMesh
		}{
			{isovolume.New(isovolume.Options{Lo: 0.3, Hi: 0.7}), first(oracleIsovolume(g, field, 0.3, 0.7)), nil},
			{isovolume.New(isovolume.Options{Lo: 0.5, Hi: 0.5}), first(oracleIsovolume(g, field, 0.5, 0.5)), nil},
			{clip.New(clip.Options{}), first(oracleClip(g, field, mesh.Vec3{}, 0)), nil},
			{contour.New(contour.Options{Isovalues: isos[0]}), nil, launches(g, repeat(3), field, isos[0])},
			{contour.New(contour.Options{}), nil, launches(g, repeat(len(isos[1])), field, isos[1])},
			{slice.New(slice.Options{}), nil, launches(g, dists, field, make([]float64, len(planes)))},
		} {
			res, err := c.f.Run(g, viz.NewExec(pool))
			if err != nil {
				t.Fatal(err)
			}
			var points []mesh.Vec3
			if c.wantTris != nil {
				if err := res.Tris.Validate(); err != nil {
					t.Fatalf("%s, constant %v: %v", c.f.Name(), constant, err)
				}
				if d := sameTris(res.Tris, c.wantTris); d != "" {
					t.Errorf("%s, constant %v: %s", c.f.Name(), constant, d)
				}
				points = res.Tris.Points
			} else {
				if err := res.Cells.Validate(); err != nil {
					t.Fatalf("%s, constant %v: %v", c.f.Name(), constant, err)
				}
				if d := sameCells(res.Cells, c.want); d != "" {
					t.Errorf("%s, constant %v: %s", c.f.Name(), constant, d)
				}
				points = res.Cells.Points
			}
			for i, p := range points {
				for _, v := range p {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("%s, constant %v: point %d is %v", c.f.Name(), constant, i, p)
					}
				}
			}
		}
		pool.Close()
	}
}

// Where the two welds part: a crossing that is not an endpoint, yet lies
// within 1e-9 of one. Here a corner's value is 3e-12 of the edge's step
// above lo, so u is about 3e-12, above the 2^-40 that is the rounding of
// an endpoint equal to the level. The position weld merges the cut
// points with the corner; the key weld keeps them, one per edge, as the
// distinct points they are.
func TestKeyWeldKeepsNearEndpointCrossingsApart(t *testing.T) {
	g, err := mesh.NewCubeGrid(1)
	if err != nil {
		t.Fatal(err)
	}
	f := g.AddPointField("energy")
	f[0] = 1 + 3e-12
	res, err := isovolume.New(isovolume.Options{Lo: 1, Hi: 5}).Run(g, viz.NewExec(par.NewPool(1)))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := oracleIsovolume(g, f, 1, 5)
	if got := len(res.Cells.Points); got <= len(want.Points) {
		t.Fatalf("key weld keeps %d points, position weld %d: the near-endpoint cuts merged", got, len(want.Points))
	}
	if err := res.Cells.Validate(); err != nil {
		t.Fatal(err)
	}
}

// The layers and seams follow the grid's own dimensions: boxes of
// unequal sides, a single layer, and layers a few cells across, with an
// offset origin and unequal spacing, equal the oracle too, and so does
// threshold of a cell field on them.
func TestClipIsovolumeMatchOracleOnBoxes(t *testing.T) {
	for _, dims := range [][3]int{{5, 3, 7}, {2, 9, 4}, {11, 2, 2}, {3, 3, 30}} {
		g, err := mesh.NewUniformGrid(dims, mesh.Vec3{0.1, -0.2, 0.3}, mesh.Vec3{0.25, 0.125, 0.0625})
		if err != nil {
			t.Fatal(err)
		}
		f := g.AddPointField("energy")
		for id := range f {
			i, j, k := g.PointIJK(id)
			f[id] = float64((7*i + 3*j + 5*k) % 5)
		}
		cf := g.AddCellField("cells")
		for c := range cf {
			i, j, k := g.CellIJK(c)
			cf[c] = float64((3*i + 5*j + 7*k) % 4)
		}
		clipWant, clipSoup := oracleClip(g, f, mesh.Vec3{}, 0)
		isoWant, isoSoup := oracleIsovolume(g, f, 1.5, 3)
		carry, err := g.EnsurePointField("cells")
		if err != nil {
			t.Fatal(err)
		}
		threshWant := oracleThreshold(g, cf, carry, 1, 2)
		for _, nw := range []int{1, 3} {
			pool := par.NewPool(nw)
			for _, c := range []struct {
				f    viz.Filter
				want *mesh.UnstructuredMesh
				soup uint64
			}{
				{clip.New(clip.Options{}), clipWant, clipSoup},
				{isovolume.New(isovolume.Options{Lo: 1.5, Hi: 3}), isoWant, isoSoup},
			} {
				res, err := c.f.Run(g, viz.NewExec(pool))
				if err != nil {
					t.Fatal(err)
				}
				if d := sameCells(res.Cells, c.want); d != "" {
					t.Errorf("%s, %v, %d workers: %s", c.f.Name(), dims, nw, d)
				}
				if got := res.Profile.RandomAccesses; got != c.soup {
					t.Errorf("%s, %v, %d workers: priced %d soup points, the soup has %d", c.f.Name(), dims, nw, got, c.soup)
				}
			}
			// Threshold's soup price is pinned in its own package.
			res, err := threshold.New(threshold.Options{Field: "cells", Lo: 1, Hi: 2}).Run(g, viz.NewExec(pool))
			if err != nil {
				t.Fatal(err)
			}
			if d := sameCells(res.Cells, threshWant); d != "" {
				t.Errorf("Threshold, %v, %d workers: %s", dims, nw, d)
			}
			pool.Close()
		}
	}
}
