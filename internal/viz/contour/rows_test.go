package contour

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mesh"
	"repro/internal/par"
)

// crossingAll is crossing without the row index: every cell of [lo, hi)
// is classified.
func crossingAll(g *mesh.UniformGrid, field []float64, iso float64, lo, hi int, cross []uint8) (tris int) {
	cell := g.WalkCells(lo)
	for ; cell.Cell < hi; cell.Next() {
		if above, below := cell.Masks(field, iso, iso); above != 0 && below != 0 {
			n := triCounts[above]
			cross[cell.Cell] = 1 + n
			tris += int(n)
		}
	}
	return tris
}

// Property: skipping the rows whose range does not hold iso changes no
// cell's class. The fields mix a handful of repeated values (so isovalues
// land exactly on corners), NaN, ±Inf and constant rows; the isovalues
// include those same values; the cell ranges cut rows anywhere.
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
		n := g.NumCells()
		for _, iso := range isos {
			want := make([]uint8, n)
			got := make([]uint8, n)
			for lo := 0; lo < n; {
				hi := min(n, lo+1+rng.Intn(2*dims[0]))
				if a, b := crossing(g, field, rows, iso, lo, hi, got), crossingAll(g, field, iso, lo, hi, want); a != b {
					t.Fatalf("trial %d iso %v cells [%d, %d): %d triangles pruned, %d unpruned", trial, iso, lo, hi, a, b)
				}
				lo = hi
			}
			for c := range want {
				if got[c] != want[c] {
					t.Fatalf("trial %d dims %v iso %v: cell %d classed %d pruned, %d unpruned", trial, dims, iso, c, got[c], want[c])
				}
			}
		}
	}
}
