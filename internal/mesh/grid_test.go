package mesh

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func mustCube(t testing.TB, n int) *UniformGrid {
	t.Helper()
	g, err := NewCubeGrid(n)
	if err != nil {
		t.Fatalf("NewCubeGrid(%d): %v", n, err)
	}
	return g
}

func TestNewUniformGridErrors(t *testing.T) {
	if _, err := NewUniformGrid([3]int{1, 2, 2}, Vec3{}, Vec3{1, 1, 1}); err == nil {
		t.Error("accepted dims < 2")
	}
	if _, err := NewUniformGrid([3]int{2, 2, 2}, Vec3{}, Vec3{1, 0, 1}); err == nil {
		t.Error("accepted zero spacing")
	}
	if _, err := NewUniformGrid([3]int{2, 2, 2}, Vec3{}, Vec3{1, math.NaN(), 1}); err == nil {
		t.Error("accepted NaN spacing")
	}
	if _, err := NewCubeGrid(0); err == nil {
		t.Error("accepted zero-cell cube")
	}
}

func TestGridCounts(t *testing.T) {
	g := mustCube(t, 4)
	if g.NumPoints() != 5*5*5 {
		t.Errorf("NumPoints = %d, want 125", g.NumPoints())
	}
	if g.NumCells() != 4*4*4 {
		t.Errorf("NumCells = %d, want 64", g.NumCells())
	}
	if cd := g.CellDims(); cd != [3]int{4, 4, 4} {
		t.Errorf("CellDims = %v", cd)
	}
}

func TestPointIDRoundTrip(t *testing.T) {
	g, err := NewUniformGrid([3]int{3, 4, 5}, Vec3{}, Vec3{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < g.NumPoints(); id++ {
		i, j, k := g.PointIJK(id)
		if g.PointID(i, j, k) != id {
			t.Fatalf("PointID(PointIJK(%d)) = %d", id, g.PointID(i, j, k))
		}
	}
	for id := 0; id < g.NumCells(); id++ {
		i, j, k := g.CellIJK(id)
		if g.CellID(i, j, k) != id {
			t.Fatalf("CellID(CellIJK(%d)) = %d", id, g.CellID(i, j, k))
		}
	}
}

func TestPointPosition(t *testing.T) {
	g, err := NewUniformGrid([3]int{3, 3, 3}, Vec3{10, 20, 30}, Vec3{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	p := g.PointPosition(g.PointID(2, 1, 2))
	want := Vec3{12, 22, 36}
	if p != want {
		t.Errorf("PointPosition = %v, want %v", p, want)
	}
	b := g.Bounds()
	if b.Lo != (Vec3{10, 20, 30}) || b.Hi != (Vec3{12, 24, 36}) {
		t.Errorf("Bounds = %v", b)
	}
}

func TestCellPointsOrdering(t *testing.T) {
	g := mustCube(t, 2)
	pts := g.CellPoints(g.CellID(0, 0, 0))
	// VTK hex ordering: bottom quad CCW then top quad.
	wantIJK := [8][3]int{
		{0, 0, 0}, {1, 0, 0}, {1, 1, 0}, {0, 1, 0},
		{0, 0, 1}, {1, 0, 1}, {1, 1, 1}, {0, 1, 1},
	}
	for c, id := range pts {
		i, j, k := g.PointIJK(id)
		if [3]int{i, j, k} != wantIJK[c] {
			t.Errorf("corner %d = (%d,%d,%d), want %v", c, i, j, k, wantIJK[c])
		}
	}
}

// A walk started anywhere agrees, cell after cell and across row and slab
// ends, with the division-based definitions: (i, j, k), corner ids,
// corner positions bit for bit.
func TestCellWalkMatchesCellIJK(t *testing.T) {
	g, err := NewUniformGrid([3]int{5, 4, 6}, Vec3{-0.3, 0.1, 2}, Vec3{0.7, 0.25, 1.3})
	if err != nil {
		t.Fatal(err)
	}
	for start := 0; start < g.NumCells(); start += 7 {
		w := g.WalkCells(start)
		for ; w.Cell < g.NumCells(); w.Next() {
			i, j, k := g.CellIJK(w.Cell)
			if w.I != i || w.J != j || w.K != k || w.P != g.PointID(i, j, k) {
				t.Fatalf("start %d, cell %d: walk at (%d,%d,%d) p=%d, want (%d,%d,%d) p=%d", start, w.Cell, w.I, w.J, w.K, w.P, i, j, k, g.PointID(i, j, k))
			}
			for c, pid := range g.CellPoints(w.Cell) {
				if w.Point(c) != pid || w.Corner(c) != g.PointPosition(pid) {
					t.Fatalf("cell %d corner %d: point %d at %v, want %d at %v", w.Cell, c, w.Point(c), w.Corner(c), pid, g.PointPosition(pid))
				}
			}
		}
	}
}

// Masks is the min/max classification it replaces, bit by bit.
func TestCellWalkMasks(t *testing.T) {
	g := mustCube(t, 3)
	f := g.AddPointField("f")
	for id := range f {
		f[id] = float64(id%5) - 2
	}
	w := g.WalkCells(0)
	for ; w.Cell < g.NumCells(); w.Next() {
		for _, th := range [][2]float64{{-2, 2}, {0, 0}, {-1, 1}, {1.5, 1.5}, {3, -3}} {
			ge, le := w.Masks(f, th[0], th[1])
			for c, pid := range g.CellPoints(w.Cell) {
				if got, want := ge>>c&1 == 1, f[pid] >= th[0]; got != want {
					t.Fatalf("cell %d corner %d: ge bit %v, value %v >= %v is %v", w.Cell, c, got, f[pid], th[0], want)
				}
				if got, want := le>>c&1 == 1, f[pid] <= th[1]; got != want {
					t.Fatalf("cell %d corner %d: le bit %v, value %v <= %v is %v", w.Cell, c, got, f[pid], th[1], want)
				}
			}
		}
	}
}

func TestCellCenter(t *testing.T) {
	g := mustCube(t, 2)
	c := g.CellCenter(g.CellID(1, 1, 1))
	want := Vec3{0.75, 0.75, 0.75}
	if !vecAlmostEq(c, want, 1e-12) {
		t.Errorf("CellCenter = %v, want %v", c, want)
	}
}

func TestFieldManagement(t *testing.T) {
	g := mustCube(t, 2)
	pf := g.AddPointField("e")
	if len(pf) != g.NumPoints() {
		t.Errorf("point field len = %d", len(pf))
	}
	cf := g.AddCellField("rho")
	if len(cf) != g.NumCells() {
		t.Errorf("cell field len = %d", len(cf))
	}
	vf := g.AddPointVector("vel")
	if len(vf) != g.NumPoints() {
		t.Errorf("vector field len = %d", len(vf))
	}
	if g.PointField("e") == nil || g.CellField("rho") == nil || g.PointVector("vel") == nil {
		t.Error("field lookup failed")
	}
	if g.PointField("nope") != nil {
		t.Error("lookup of absent field returned data")
	}
	if err := g.SetPointField("bad", make([]float64, 3)); err == nil {
		t.Error("SetPointField accepted wrong length")
	}
	if err := g.SetCellField("bad", make([]float64, 3)); err == nil {
		t.Error("SetCellField accepted wrong length")
	}
	if names := g.FieldNames(); !slices.Equal(names, []string{"cell rho", "point e", "vector vel"}) {
		t.Errorf("FieldNames = %v", names)
	}
}

func TestFieldRange(t *testing.T) {
	lo, hi := FieldRange([]float64{3, -1, 7, 2})
	if lo != -1 || hi != 7 {
		t.Errorf("FieldRange = (%v, %v)", lo, hi)
	}
	lo, hi = FieldRange([]float64{math.Inf(1), 3, math.NaN(), -1, math.Inf(-1), 7})
	if lo != -1 || hi != 7 {
		t.Errorf("FieldRange over ±Inf and NaN = (%v, %v), want the finite values' (-1, 7)", lo, hi)
	}
	for _, f := range [][]float64{nil, {math.NaN(), math.Inf(1), math.Inf(-1)}} {
		lo, hi = FieldRange(f)
		if !math.IsInf(lo, 1) || !math.IsInf(hi, -1) {
			t.Errorf("FieldRange(%v) = (%v, %v), want the empty (+Inf, -Inf)", f, lo, hi)
		}
	}
}

func TestCellToPointConstantField(t *testing.T) {
	g := mustCube(t, 3)
	cf := g.AddCellField("e")
	for i := range cf {
		cf[i] = 5.0
	}
	pf, err := g.CellToPoint("e")
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range pf {
		if !almostEq(v, 5.0, 1e-12) {
			t.Fatalf("point %d = %v, want 5", i, v)
		}
	}
	if _, err := g.CellToPoint("missing"); err == nil {
		t.Error("CellToPoint accepted missing field")
	}
}

func TestCellToPointAveraging(t *testing.T) {
	// 2x2x2-cell grid: interior point touches all 8 cells.
	g := mustCube(t, 2)
	cf := g.AddCellField("e")
	for i := range cf {
		cf[i] = float64(i)
	}
	pf, err := g.CellToPoint("e")
	if err != nil {
		t.Fatal(err)
	}
	// Center point (1,1,1) averages all 8 cells: (0+..+7)/8 = 3.5.
	if got := pf[g.PointID(1, 1, 1)]; !almostEq(got, 3.5, 1e-12) {
		t.Errorf("center point = %v, want 3.5", got)
	}
	// Corner point (0,0,0) sees only cell 0.
	if got := pf[g.PointID(0, 0, 0)]; !almostEq(got, 0, 1e-12) {
		t.Errorf("corner point = %v, want 0", got)
	}
	// Corner point (2,2,2) sees only the last cell.
	if got := pf[g.PointID(2, 2, 2)]; !almostEq(got, 7, 1e-12) {
		t.Errorf("far corner = %v, want 7", got)
	}
}

func TestSampleScalarTrilinear(t *testing.T) {
	g := mustCube(t, 4)
	f := g.AddPointField("lin")
	// A linear field must be reproduced exactly by trilinear interpolation.
	a, b, c, d := 2.0, -1.0, 0.5, 3.0
	for id := 0; id < g.NumPoints(); id++ {
		p := g.PointPosition(id)
		f[id] = a + b*p[0] + c*p[1] + d*p[2]
	}
	for _, p := range []Vec3{{0.1, 0.2, 0.3}, {0.5, 0.5, 0.5}, {0.99, 0.01, 0.73}, {0, 0, 0}, {1, 1, 1}} {
		got, ok := g.SampleScalar("lin", p)
		if !ok {
			t.Fatalf("SampleScalar(%v) not ok", p)
		}
		want := a + b*p[0] + c*p[1] + d*p[2]
		if !almostEq(got, want, 1e-12) {
			t.Errorf("SampleScalar(%v) = %v, want %v", p, got, want)
		}
	}
	if _, ok := g.SampleScalar("lin", Vec3{2, 0, 0}); ok {
		t.Error("sample outside bounds succeeded")
	}
	if _, ok := g.SampleScalar("absent", Vec3{0.5, 0.5, 0.5}); ok {
		t.Error("sample of absent field succeeded")
	}
}

func TestSampleVectorTrilinear(t *testing.T) {
	g := mustCube(t, 4)
	vf := g.AddPointVector("v")
	for id := 0; id < g.NumPoints(); id++ {
		p := g.PointPosition(id)
		vf[id] = Vec3{p[0], 2 * p[1], -p[2]}
	}
	p := Vec3{0.3, 0.6, 0.9}
	got, ok := g.SampleVector("v", p)
	if !ok {
		t.Fatal("SampleVector not ok")
	}
	want := Vec3{0.3, 1.2, -0.9}
	if !vecAlmostEq(got, want, 1e-12) {
		t.Errorf("SampleVector = %v, want %v", got, want)
	}
	if _, ok := g.SampleVector("v", Vec3{-0.1, 0, 0}); ok {
		t.Error("vector sample outside bounds succeeded")
	}
	if _, ok := g.SampleVector("absent", p); ok {
		t.Error("sample of absent vector field succeeded")
	}
}

// Property: trilinear interpolation of a linear field is exact at random
// interior positions.
func TestSampleScalarLinearExactProperty(t *testing.T) {
	g := mustCube(t, 5)
	f := g.AddPointField("lin")
	for id := 0; id < g.NumPoints(); id++ {
		p := g.PointPosition(id)
		f[id] = 1 + 2*p[0] - 3*p[1] + 4*p[2]
	}
	prop := func(x, y, z float64) bool {
		frac := func(v float64) float64 {
			v = math.Abs(math.Mod(v, 1))
			if math.IsNaN(v) {
				return 0.5
			}
			return v
		}
		p := Vec3{frac(x), frac(y), frac(z)}
		got, ok := g.SampleScalar("lin", p)
		if !ok {
			return false
		}
		want := 1 + 2*p[0] - 3*p[1] + 4*p[2]
		return almostEq(got, want, 1e-10)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
