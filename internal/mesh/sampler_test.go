package mesh

import (
	"math"
	"testing"
)

// samplerTestGrid builds an n-cell cube grid with a smooth scalar field and
// a swirling vector field.
func samplerTestGrid(t testing.TB, n int) *UniformGrid {
	t.Helper()
	g, err := NewCubeGrid(n)
	if err != nil {
		t.Fatal(err)
	}
	f := g.AddPointField("s")
	v := g.AddPointVector("v")
	for id := 0; id < g.NumPoints(); id++ {
		p := g.PointPosition(id)
		f[id] = math.Sin(7*p[0])*math.Cos(5*p[1]) + p[2]*p[2]
		v[id] = Vec3{
			-(p[1] - 0.5) + 0.1*p[2],
			(p[0] - 0.5) * (1 + p[2]),
			math.Sin(3 * p[0] * p[1]),
		}
	}
	return g
}

// samplerProbePoints yields a deterministic cloud of probe positions, some
// inside, some on faces, some outside.
func samplerProbePoints(n int) []Vec3 {
	rng := uint64(12345)
	next := func() float64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return float64(rng>>11) / float64(1<<53)
	}
	pts := make([]Vec3, 0, n+8)
	for i := 0; i < n; i++ {
		// Span [-0.1, 1.1) so ~1/6 of probes fall outside the unit cube.
		pts = append(pts, Vec3{next()*1.2 - 0.1, next()*1.2 - 0.1, next()*1.2 - 0.1})
	}
	pts = append(pts,
		Vec3{0, 0, 0}, Vec3{1, 1, 1}, // corners
		Vec3{1, 0.5, 0.5}, Vec3{0.5, 1, 0.5}, // upper faces (clamp path)
		Vec3{0.5, 0.5, 0}, Vec3{-1e-12, 0.5, 0.5}, // just outside
		Vec3{0.25, 0.25, 0.25}, Vec3{0.999999, 0.999999, 0.999999},
	)
	return pts
}

// TestSamplersBitIdentical holds both samplers bit-identical to the
// by-name reference paths on power-of-two (exact reciprocal) and
// non-power-of-two (division) grids.
func TestSamplersBitIdentical(t *testing.T) {
	for _, n := range []int{8, 32, 6, 12, 24, 40} {
		g := samplerTestGrid(t, n)
		ss, err := NewScalarSampler(g, "s")
		if err != nil {
			t.Fatal(err)
		}
		vs, err := NewVectorSampler(g, "v")
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range samplerProbePoints(2000) {
			wantS, wantOK := g.SampleScalar("s", p)
			gotS, gotOK := ss.Sample(p)
			if wantOK != gotOK || gotS != wantS {
				t.Fatalf("n=%d scalar at %v: sampler (%v,%v) != reference (%v,%v)",
					n, p, gotS, gotOK, wantS, wantOK)
			}
			wantV, wantOK := g.SampleVector("v", p)
			gotV, gotOK := vs.Sample(p)
			if wantOK != gotOK || gotV != wantV {
				t.Fatalf("n=%d vector at %v: sampler (%v,%v) != reference (%v,%v)",
					n, p, gotV, gotOK, wantV, wantOK)
			}
		}
	}
}

// TestSamplerCellCacheSequential walks a tight path through one cell and
// across a boundary: the cached-cell fast path must return the same bits
// as a freshly-built sampler at every position.
func TestSamplerCellCacheSequential(t *testing.T) {
	g := samplerTestGrid(t, 16)
	vs, err := NewVectorSampler(g, "v")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= 400; i++ {
		// 400 tiny steps crossing several cell boundaries diagonally.
		p := Vec3{0.30 + float64(i)*0.0005, 0.31 + float64(i)*0.0004, 0.29 + float64(i)*0.0003}
		got, ok1 := vs.Sample(p)
		fresh, _ := NewVectorSampler(g, "v")
		want, ok2 := fresh.Sample(p)
		if ok1 != ok2 || got != want {
			t.Fatalf("step %d at %v: cached %v != fresh %v", i, p, got, want)
		}
	}
}

// TestCellIndexMatchesLocate checks the linearized cell id against the
// (i,j,k) the sampling path interpolates in, including boundary clamps,
// and that sampler and grid agree.
func TestCellIndexMatchesLocate(t *testing.T) {
	for _, n := range []int{8, 6} {
		g := samplerTestGrid(t, n)
		vs, err := NewVectorSampler(g, "v")
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range samplerProbePoints(1000) {
			ci, cj, ck, _, _, _, ok := g.locate(p)
			want := -1
			if ok {
				want = g.CellID(ci, cj, ck)
			}
			got, gotOK := g.CellIndex(p)
			if gotOK != ok || (ok && got != want) {
				t.Fatalf("n=%d CellIndex(%v) = (%d,%v), want (%d,%v)", n, p, got, gotOK, want, ok)
			}
			sgot, sok := vs.Cell(p[0], p[1], p[2])
			if sok != ok || (ok && sgot != want) {
				t.Fatalf("n=%d sampler Cell(%v) = (%d,%v), want (%d,%v)", n, p, sgot, sok, want, ok)
			}
		}
	}
}

// TestCellIndexDistinguishesEqualRadiusCells is the regression guard for
// the advection crossing bugfix: cells at the same distance from the
// origin must have distinct ids (the old distance bucket collided them).
func TestCellIndexDistinguishesEqualRadiusCells(t *testing.T) {
	g := samplerTestGrid(t, 16)
	// Two points on the same origin-centered sphere, different cells.
	r := 0.5
	p1 := Vec3{r, 0.03, 0.03}
	p2 := Vec3{0.03, r, 0.03}
	if math.Abs(p1.Norm()-p2.Norm()) > 1e-15 {
		t.Fatal("probes not at equal radius")
	}
	c1, ok1 := g.CellIndex(p1)
	c2, ok2 := g.CellIndex(p2)
	if !ok1 || !ok2 {
		t.Fatal("probes outside grid")
	}
	if c1 == c2 {
		t.Fatalf("distinct cells collided: both id %d", c1)
	}
}

// TestNamedSamplerErrors covers missing-field construction.
func TestNamedSamplerErrors(t *testing.T) {
	g := samplerTestGrid(t, 4)
	if _, err := NewScalarSampler(g, "nope"); err == nil {
		t.Error("missing scalar field accepted")
	}
	if _, err := NewVectorSampler(g, "nope"); err == nil {
		t.Error("missing vector field accepted")
	}
}
