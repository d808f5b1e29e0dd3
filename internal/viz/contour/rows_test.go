package contour

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mesh"
	"repro/internal/ops"
	"repro/internal/par"
	"repro/internal/viz"
)

// everyRow is a row index whose rows hold every isovalue but NaN: the
// contour passes classify every cell.
func everyRow(g *mesh.UniformGrid) Rows {
	rows := make(Rows, (g.Dims[1]-1)*(g.Dims[2]-1))
	for r := range rows {
		rows[r] = RowRange{Min: math.Inf(-1), Max: math.Inf(1)}
	}
	return rows
}

// Property: skipping the rows whose range does not hold iso changes no
// cell's class: the surface and both prices (the crossed and the
// emitting cells) are the unpruned run's. The fields mix a handful of
// repeated values (so isovalues land exactly on corners), NaN, ±Inf and
// constant rows; the isovalues include those same values.
func TestRowIndexPrunesExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	inf := math.Inf(1)
	special := []float64{math.NaN(), inf, -inf, 0, math.Copysign(0, -1), 1, 2.5}
	pool := par.NewPool(2)
	defer pool.Close()
	for trial := 0; trial < 200; trial++ {
		dims := [3]int{2 + rng.Intn(6), 2 + rng.Intn(6), 2 + rng.Intn(6)}
		g, err := mesh.NewUniformGrid(dims, mesh.Vec3{}, mesh.Vec3{1, 1, 1})
		if err != nil {
			t.Fatal(err)
		}
		field := g.AddPointField("f")
		for i := range field {
			if rng.Intn(3) == 0 {
				field[i] = special[rng.Intn(len(special))]
			} else {
				field[i] = rng.NormFloat64()
			}
		}
		// Flatten a few rows of points to one value.
		for r := 0; r < dims[1]*dims[2]; r++ {
			if rng.Intn(4) == 0 {
				v := special[rng.Intn(len(special))]
				for i := 0; i < dims[0]; i++ {
					field[r*dims[0]+i] = v
				}
			}
		}
		rows := indexRows(g, field, pool)
		isos := append([]float64{rng.NormFloat64()}, special...)
		for k := 0; k < 4; k++ {
			isos = append(isos, field[rng.Intn(len(field))])
		}
		for _, iso := range isos {
			var prices [2][2]ops.Profile // traditional, DPP
			var surfaces [2]mesh.TriMesh
			var em mesh.KeyedEmission
			for i, r := range []Rows{rows, everyRow(g)} {
				ex := viz.NewExec(pool)
				ContourField(g, field, field, r, iso, &em, &prices[i][1], ex, &surfaces[i])
				prices[i][0] = ex.Drain()
			}
			if prices[0] != prices[1] || triDigest(&surfaces[0]) != triDigest(&surfaces[1]) {
				t.Fatalf("trial %d dims %v iso %v: pruned run priced %+v and wrote %d triangles; unpruned %+v and %d",
					trial, dims, iso, prices[0], len(surfaces[0].Tris), prices[1], len(surfaces[1].Tris))
			}
		}
	}
}
