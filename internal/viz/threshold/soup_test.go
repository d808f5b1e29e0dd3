package threshold

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/viz"
)

// soupOracle is the per-cell emission threshold's output welds: every
// kept cell, in cell order, a hexahedron on eight fresh points carrying
// the recentered field. It returns the soup welded by position, the kept
// cells and the soup as the kernel prices it: each kept corner once per
// GrainFixed chunk of cells, counted with a map.
func soupOracle(t testing.TB, g *mesh.UniformGrid, field string, lo, hi float64) (welded *mesh.UnstructuredMesh, kept, points uint64) {
	t.Helper()
	cf := g.CellField(field)
	if lo == 0 && hi == 0 {
		fmin, fmax := mesh.FieldRange(cf)
		lo, hi = fmin+0.5*(fmax-fmin), fmax
	}
	pf, err := g.EnsurePointField(field)
	if err != nil {
		t.Fatal(err)
	}
	s := mesh.NewUnstructuredMesh()
	grain := par.GrainFixed(g.NumCells())
	seen := map[int]bool{}
	cell := g.WalkCells(0)
	for ; cell.Cell < len(cf); cell.Next() {
		if cell.Cell%grain == 0 {
			clear(seen)
		}
		if v := cf[cell.Cell]; !(v >= lo && v <= hi) {
			continue
		}
		kept++
		for c := 0; c < 8; c++ {
			pid := cell.Point(c)
			s.Conn = append(s.Conn, int32(len(s.Points)))
			s.Points = append(s.Points, g.PointPosition(pid))
			s.Scalars = append(s.Scalars, pf[pid])
			if !seen[pid] {
				seen[pid] = true
				points++
			}
		}
		s.Types = append(s.Types, mesh.Hex)
		s.Offsets = append(s.Offsets, int32(len(s.Conn)))
	}
	return mesh.WeldPointsPool(s, 1e-9, nil), kept, points
}

// sameMesh reports the first difference between two meshes, bit for bit,
// or "".
func sameMesh(got, want *mesh.UnstructuredMesh) string {
	if len(got.Points) != len(want.Points) || len(got.Types) != len(want.Types) || len(got.Conn) != len(want.Conn) {
		return fmt.Sprintf("%d points, %d cells, %d connectivity entries; oracle %d, %d, %d",
			len(got.Points), len(got.Types), len(got.Conn), len(want.Points), len(want.Types), len(want.Conn))
	}
	if cellsDigest(got) != cellsDigest(want) {
		return "same sizes, different arrays"
	}
	return ""
}

// Threshold prices the soup a per-cell emission writes — each kept
// corner once per GrainFixed chunk — and its output is that soup welded,
// bit for bit.
// The boxes' chunks straddle k-layer seams: {3,3,30} and 10³ have several
// chunks per layer, 80³ a chunk larger than a layer (not under -race).
func TestThresholdPricesTheChunkSoup(t *testing.T) {
	for _, dims := range [][3]int{{3, 3, 30}, {10, 10, 10}, {80, 80, 80}} {
		if raceDetector && dims[0] > 10 {
			continue
		}
		g := waveBox(t, dims, 1.0/16)
		want, kept, points := soupOracle(t, g, "e", 0, 0)
		n, pfLen := uint64(g.NumCells()), uint64(g.NumPoints())
		trad, dpp := tradCost(n, kept, pfLen, points), dppCost(n, kept, pfLen, points)
		for _, nw := range []int{1, 2, 4} {
			pool := par.NewPool(nw)
			for _, backend := range []viz.Backend{viz.Traditional, viz.DPP} {
				res, err := New(Options{Field: "e", Backend: backend}).Run(g, viz.NewExec(pool))
				if err != nil {
					t.Fatal(err)
				}
				wantProfile := trad
				if backend == viz.DPP {
					wantProfile = dpp
				}
				if res.Profile != wantProfile || res.DPP != dpp {
					t.Errorf("%v, %d workers, %v: priced\n %+v\n %+v\nwant\n %+v\n %+v", dims, nw, backend, res.Profile, res.DPP, wantProfile, dpp)
				}
				if d := sameMesh(res.Cells, want); d != "" {
					t.Errorf("%v, %d workers, %v: %s", dims, nw, backend, d)
				}
			}
			pool.Close()
		}
	}
}

// nonFiniteCells is an 8³ grid whose cell field is the cell's x index,
// with every 13th cell +Inf or −Inf and every 17th NaN, or a constant
// field.
func nonFiniteCells(t *testing.T, constant bool) *mesh.UniformGrid {
	g, err := mesh.NewCubeGrid(8)
	if err != nil {
		t.Fatal(err)
	}
	cf := g.AddCellField("e")
	for c := range cf {
		i, _, _ := g.CellIJK(c)
		switch {
		case constant:
			cf[c] = 0.5
		case c%26 == 0:
			cf[c] = math.Inf(1)
		case c%13 == 0:
			cf[c] = math.Inf(-1)
		case c%17 == 0:
			cf[c] = math.NaN()
		default:
			cf[c] = float64(i)
		}
	}
	return g
}

// On NaN, ±Inf and constant fields, at the default range and the whole
// line, threshold keeps every cell of a constant field and every cell
// but the NaN ones of the whole line, and writes a valid mesh of finite
// positions: the oracle's. An infinite field's default range is the
// upper half of its finite values' range (mesh.FieldRange skips ±Inf and
// NaN).
func TestThresholdNonFiniteAndConstantFields(t *testing.T) {
	for _, constant := range []bool{false, true} {
		g := nonFiniteCells(t, constant)
		cf := g.CellField("e")
		// The default keeps the upper half of the finite values' range,
		// [3.5, 7] of the x indices: the finite cells at x >= 4.
		nonNaN, upper := 0, 0
		for c, v := range cf {
			if !math.IsNaN(v) {
				nonNaN++
			}
			if i, _, _ := g.CellIJK(c); v == float64(i) && i >= 4 {
				upper++
			}
		}
		for _, r := range [][2]float64{{0, 0}, {math.Inf(-1), math.Inf(1)}} {
			want, _, _ := soupOracle(t, g, "e", r[0], r[1])
			for _, nw := range []int{1, 3} {
				pool := par.NewPool(nw)
				res, err := New(Options{Field: "e", Lo: r[0], Hi: r[1]}).Run(g, viz.NewExec(pool))
				pool.Close()
				if err != nil {
					t.Fatal(err)
				}
				m := res.Cells
				if err := m.Validate(); err != nil {
					t.Fatalf("constant %v, range %v, %d workers: %v", constant, r, nw, err)
				}
				switch {
				case constant && m.NumCells() != g.NumCells():
					t.Errorf("range %v, %d workers: kept %d of %d cells of a constant field", r, nw, m.NumCells(), g.NumCells())
				case r[0] != 0 && m.NumCells() != nonNaN:
					t.Errorf("constant %v, range %v, %d workers: kept %d cells, %d are not NaN", constant, r, nw, m.NumCells(), nonNaN)
				case !constant && r[0] == 0 && m.NumCells() != upper:
					t.Errorf("range %v, %d workers: an infinite field's default range kept %d cells, want the %d finite ones in its upper half", r, nw, m.NumCells(), upper)
				}
				for i, p := range m.Points {
					for _, v := range p {
						if math.IsNaN(v) || math.IsInf(v, 0) {
							t.Fatalf("constant %v, range %v, %d workers: point %d is %v", constant, r, nw, i, p)
						}
					}
				}
				if d := sameMesh(m, want); d != "" {
					t.Errorf("constant %v, range %v, %d workers: %s", constant, r, nw, d)
				}
			}
		}
	}
}
