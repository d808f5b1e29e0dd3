package viz

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mesh"
)

func unitTet() Tet {
	return Tet{
		P: [4]mesh.Vec3{{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}},
	}
}

func TestTetVolume(t *testing.T) {
	tet := unitTet()
	if got := tet.Volume(); math.Abs(got-1.0/6) > 1e-12 {
		t.Errorf("unit tet volume = %v, want 1/6", got)
	}
}

func TestHexTetsTileTheCell(t *testing.T) {
	g, err := mesh.NewCubeGrid(1)
	if err != nil {
		t.Fatal(err)
	}
	f := g.AddPointField("d")
	var ts [6]Tet
	cell := g.WalkCells(0)
	CellTets(&cell, f, f, &ts)
	total := 0.0
	for _, tet := range ts {
		v := tet.Volume()
		if v <= 0 {
			t.Errorf("degenerate tet in decomposition: volume %v", v)
		}
		total += v
	}
	if math.Abs(total-1.0) > 1e-12 {
		t.Errorf("6-tet decomposition volume = %v, want 1 (cell volume)", total)
	}
}

func TestContourNoCrossing(t *testing.T) {
	tet := unitTet()
	tet.D = [4]float64{1, 2, 3, 4}
	n := tet.Contour(0.5, func(p0, p1, p2 mesh.Vec3, s0, s1, s2 float64) {
		t.Error("emitted triangle with no crossing")
	})
	if n != 0 {
		t.Errorf("Contour returned %d", n)
	}
	n = tet.Contour(10, func(p0, p1, p2 mesh.Vec3, s0, s1, s2 float64) {
		t.Error("emitted triangle with no crossing")
	})
	if n != 0 {
		t.Errorf("Contour returned %d", n)
	}
}

func TestContourSingleCorner(t *testing.T) {
	tet := unitTet()
	tet.D = [4]float64{1, 0, 0, 0} // corner 0 above iso=0.5
	tet.S = [4]float64{10, 20, 30, 40}
	var tris int
	tet.Contour(0.5, func(p0, p1, p2 mesh.Vec3, s0, s1, s2 float64) {
		tris++
		// All vertices must lie at the midpoint of edges from corner 0
		// (field is linear 1 -> 0 along each edge, iso = 0.5).
		for _, p := range []mesh.Vec3{p0, p1, p2} {
			d := p.Sub(mesh.Vec3{0, 0, 0}).Norm()
			if d < 0.4 || d > 0.8 {
				t.Errorf("contour vertex %v not near edge midpoints", p)
			}
		}
		// Carried scalars are lerped halfway.
		for i, s := range []float64{s0, s1, s2} {
			want := (10.0 + []float64{20, 30, 40}[i]) / 2
			if math.Abs(s-want) > 1e-12 {
				t.Errorf("carried scalar %d = %v, want %v", i, s, want)
			}
		}
	})
	if tris != 1 {
		t.Errorf("single-corner case emitted %d triangles, want 1", tris)
	}
}

func TestContourTwoTwoSplit(t *testing.T) {
	tet := unitTet()
	tet.D = [4]float64{1, 1, 0, 0}
	var tris int
	tet.Contour(0.5, func(p0, p1, p2 mesh.Vec3, s0, s1, s2 float64) { tris++ })
	if tris != 2 {
		t.Errorf("2-2 case emitted %d triangles, want 2", tris)
	}
}

// linearField evaluates a fixed linear function at p.
func linearField(p mesh.Vec3) float64 { return 0.3 + 1.7*p[0] - 0.9*p[1] + 0.4*p[2] }

// Property: for a linear field, every contour vertex evaluates to the
// isovalue.
func TestContourVerticesOnIsosurface(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		var tet Tet
		for c := 0; c < 4; c++ {
			tet.P[c] = mesh.Vec3{rng.Float64(), rng.Float64(), rng.Float64()}
			tet.D[c] = linearField(tet.P[c])
		}
		if tet.Volume() < 1e-6 {
			continue
		}
		iso := -0.5 + 3*rng.Float64()
		tet.Contour(iso, func(p0, p1, p2 mesh.Vec3, s0, s1, s2 float64) {
			for _, p := range []mesh.Vec3{p0, p1, p2} {
				if math.Abs(linearField(p)-iso) > 1e-9 {
					t.Fatalf("contour vertex %v has field %v, want iso %v", p, linearField(p), iso)
				}
			}
		})
	}
}

func TestClipKeepAll(t *testing.T) {
	tet := ClipTet{Tet: unitTet()}
	tet.D = [4]float64{1, 2, 3, 4}
	out := tet.ClipAbove(0.5, nil)
	if len(out) != 1 {
		t.Fatalf("ClipAbove kept %d tets, want 1", len(out))
	}
	if math.Abs(out[0].Volume()-tet.Volume()) > 1e-12 {
		t.Errorf("kept volume changed")
	}
	if out2 := tet.ClipAbove(10, nil); len(out2) != 0 {
		t.Errorf("ClipAbove kept %d tets above the range", len(out2))
	}
}

// Property: clipping above and below the same iso partitions the volume.
func TestClipPartitionsVolume(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		var tet ClipTet
		for c := 0; c < 4; c++ {
			tet.P[c] = mesh.Vec3{rng.Float64(), rng.Float64(), rng.Float64()}
			tet.D[c] = -1 + 2*rng.Float64()
			tet.S[c] = rng.Float64()
		}
		vol := tet.Volume()
		if vol < 1e-6 {
			continue
		}
		iso := -1 + 2*rng.Float64()
		above := tet.ClipAbove(iso, nil)
		below := tet.ClipBelow(iso, nil)
		var va, vb float64
		for _, p := range above {
			va += p.Volume()
		}
		for _, p := range below {
			vb += p.Volume()
		}
		if math.Abs(va+vb-vol) > 1e-9*math.Max(vol, 1) {
			t.Fatalf("trial %d: above %v + below %v != vol %v (iso %v, D %v)",
				trial, va, vb, vol, iso, tet.D)
		}
	}
}

// Property: every piece from ClipAbove has all corners with D >= iso (to
// interpolation tolerance).
func TestClipPiecesRespectHalfSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		var tet ClipTet
		for c := 0; c < 4; c++ {
			tet.P[c] = mesh.Vec3{rng.Float64(), rng.Float64(), rng.Float64()}
			tet.D[c] = -1 + 2*rng.Float64()
		}
		if tet.Volume() < 1e-6 {
			continue
		}
		iso := -0.9 + 1.8*rng.Float64()
		for _, piece := range tet.ClipAbove(iso, nil) {
			for c := 0; c < 4; c++ {
				if piece.D[c] < iso-1e-9 {
					t.Fatalf("clip piece corner D = %v below iso %v", piece.D[c], iso)
				}
			}
		}
	}
}

func TestClipBelowRestoresFieldSign(t *testing.T) {
	tet := ClipTet{Tet: unitTet()}
	tet.D = [4]float64{-1, -2, -3, -4}
	out := tet.ClipBelow(0, nil)
	if len(out) != 1 {
		t.Fatalf("kept %d tets", len(out))
	}
	if out[0].D != tet.D {
		t.Errorf("ClipBelow altered D: %v vs %v", out[0].D, tet.D)
	}
}

func TestEdgeLerpDegenerate(t *testing.T) {
	tet := unitTet()
	tet.D = [4]float64{1, 1, 0, 0} // edge 0-1 has zero denominator
	p, _, _ := tet.edgeLerp(0, 1, 1)
	// Must not produce NaN; clamps to the midpoint or an endpoint.
	for _, v := range p {
		if math.IsNaN(v) {
			t.Fatalf("edgeLerp produced NaN: %v", p)
		}
	}
}

func TestCellTetsFieldAssignment(t *testing.T) {
	g, err := mesh.NewCubeGrid(2)
	if err != nil {
		t.Fatal(err)
	}
	d := g.AddPointField("d")
	s := g.AddPointField("s")
	for i := range d {
		d[i] = float64(i)
		s[i] = float64(i) * 10
	}
	var ts [6]Tet
	cell := g.WalkCells(g.CellID(1, 1, 1))
	CellTets(&cell, d, s, &ts)
	for _, tet := range ts {
		for c := 0; c < 4; c++ {
			if tet.S[c] != tet.D[c]*10 {
				t.Fatalf("carry scalar mismatch: D=%v S=%v", tet.D[c], tet.S[c])
			}
		}
	}
}

// Property (quick): Contour emits 0, 1, or 2 triangles, never more.
func TestContourTriangleCountProperty(t *testing.T) {
	f := func(d0, d1, d2, d3 float64, isoRaw float64) bool {
		norm := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 0
			}
			return math.Mod(x, 10)
		}
		tet := unitTet()
		tet.D = [4]float64{norm(d0), norm(d1), norm(d2), norm(d3)}
		iso := norm(isoRaw)
		n := tet.Contour(iso, func(p0, p1, p2 mesh.Vec3, s0, s1, s2 float64) {})
		return n >= 0 && n <= 2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
