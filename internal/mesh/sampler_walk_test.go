package mesh

import (
	"math"
	"testing"
)

// The samplers against the by-name oracle (sample_oracle_test.go) along
// the access patterns of the two algorithms that live on them: RK4
// trajectories for VectorSampler, ray marches for ScalarSampler. One
// long-lived sampler per grid, so the last-cell cache is carried across
// every probe exactly as a particle or a ray carries it. n = 12 and 17
// take the division path, n = 32 the exact-reciprocal one.

func TestVectorSamplerMatchesOracleAlongTrajectories(t *testing.T) {
	const (
		seeds = 64
		steps = 1000
		h     = 0.002
	)
	for _, n := range []int{12, 17, 32} {
		g := samplerTestGrid(t, n)
		vs, err := NewVectorSampler(g, "v")
		if err != nil {
			t.Fatal(err)
		}
		probes := 0
		probe := func(p Vec3) (Vec3, bool) {
			t.Helper()
			got, ok := vs.Sample(p)
			want, wantOK := g.SampleVector("v", p)
			if ok != wantOK || got != want {
				t.Fatalf("n=%d probe %d at %v: sampler (%v,%v) != oracle (%v,%v)", n, probes, p, got, ok, want, wantOK)
			}
			probes++
			return got, ok
		}
		rng := uint64(2024)
		next := func() float64 {
			rng = rng*6364136223846793005 + 1442695040888963407
			return float64(rng>>11) / float64(1<<53)
		}
		for s := 0; s < seeds; s++ {
			p := Vec3{0.1 + 0.8*next(), 0.1 + 0.8*next(), 0.1 + 0.8*next()}
			for step := 0; step < steps; step++ {
				k1, ok1 := probe(p)
				k2, ok2 := probe(p.Add(k1.Scale(h / 2)))
				k3, ok3 := probe(p.Add(k2.Scale(h / 2)))
				k4, ok4 := probe(p.Add(k3.Scale(h)))
				if !(ok1 && ok2 && ok3 && ok4) {
					break // left the grid, on both paths alike
				}
				p = p.Add(k1.Add(k2.Scale(2)).Add(k3.Scale(2)).Add(k4).Scale(h / 6))
				cell, ok := vs.Cell(p[0], p[1], p[2])
				want, wantOK := g.CellIndex(p)
				if ok != wantOK || cell != want {
					t.Fatalf("n=%d seed %d step %d at %v: Cell (%d,%v) != oracle (%d,%v)", n, s, step, p, cell, ok, want, wantOK)
				}
			}
		}
		if vs.Escaped() {
			t.Fatalf("n=%d: whole-grid sampler escaped", n)
		}
		if probes < seeds*steps {
			t.Fatalf("n=%d: only %d probes compared; the walk left the grid too early to mean anything", n, probes)
		}
	}
}

func TestScalarSamplerMatchesOracleAlongRays(t *testing.T) {
	for _, n := range []int{12, 17, 32} {
		g := samplerTestGrid(t, n)
		ss, err := NewScalarSampler(g, "s")
		if err != nil {
			t.Fatal(err)
		}
		step := 0.75 * g.Spacing[0]
		inside := 0
		for r := 0; r < 96; r++ {
			// An orbit of origins outside the cube, each aimed at a
			// different interior target: rays enter, cross and leave.
			az := 2 * math.Pi * float64(r) / 96
			orig := Vec3{0.5 + 1.6*math.Cos(az), 0.5 + 1.6*math.Sin(az), 0.5 + 0.9*math.Sin(3*az)}
			target := Vec3{0.5 + 0.3*math.Sin(5*az), 0.5 + 0.3*math.Cos(7*az), 0.5 + 0.3*math.Sin(11*az)}
			dir := target.Sub(orig).Normalize()
			for tt := 0.0; tt < 3.2; tt += step {
				p := orig.Add(dir.Scale(tt))
				got, ok := ss.Sample(p)
				want, wantOK := g.SampleScalar("s", p)
				if ok != wantOK || got != want {
					t.Fatalf("n=%d ray %d t=%v at %v: sampler (%v,%v) != oracle (%v,%v)", n, r, tt, p, got, ok, want, wantOK)
				}
				if ok {
					inside++
				}
			}
		}
		if inside < 96*n {
			t.Fatalf("n=%d: only %d in-grid samples compared", n, inside)
		}
	}
}
