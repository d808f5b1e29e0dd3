package mesh

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/par"
)

// itemTris is how many triangles item i of a trial emits: 0–3, from a
// hash of the trial seed, so count and fill agree without sharing state.
func itemTris(seed int64, i int) int {
	h := uint64(seed) ^ uint64(i)*0x9E3779B97F4A7C15
	h ^= h >> 31
	return int(h * 0xBF58476D1CE4E5B9 >> 62)
}

// emitItemTris writes item i's triangles at p (points) and t (triangles)
// and returns the offsets past them.
func emitItemTris(seed int64, i int, out *TriMesh, p, t int) (int, int) {
	for k := 0; k < itemTris(seed, i); k++ {
		f := float64(i) + float64(k)/4
		out.Points[p], out.Points[p+1], out.Points[p+2] = Vec3{f, 0, 0}, Vec3{f, 1, 0}, Vec3{f, 0, 1}
		out.Scalars[p], out.Scalars[p+1], out.Scalars[p+2] = f, f+1, f+2
		out.Tris[t] = [3]int32{int32(p), int32(p + 1), int32(p + 2)}
		p, t = p+3, t+1
	}
	return p, t
}

// serialTris is the serial emission: every item in order, appended.
func serialTris(seed int64, n int, out *TriMesh) {
	for i := 0; i < n; i++ {
		k := itemTris(seed, i)
		p, t := len(out.Points), len(out.Tris)
		out.Points = append(out.Points, make([]Vec3, 3*k)...)
		out.Scalars = append(out.Scalars, make([]float64, 3*k)...)
		out.Tris = append(out.Tris, make([][3]int32, k)...)
		emitItemTris(seed, i, out, p, t)
	}
}

// emitTris is the driver run the filters make: count per chunk, grow,
// fill per chunk. Each chunk's fill reports its item count, so the
// returned sum is n.
func emitTris(pool *par.Pool, seed int64, n, grain int, out *TriMesh) uint64 {
	em := Count(pool, n, grain, func(lo, hi, _ int) Sizes {
		tris := 0
		for i := lo; i < hi; i++ {
			tris += itemTris(seed, i)
		}
		return Sizes{Points: 3 * tris, Cells: tris}
	})
	em.GrowTris(out)
	items, _ := em.Fill(func(lo, hi, _ int, at Sizes) (Sizes, uint64, uint64) {
		p, t := at.Points, at.Cells
		for i := lo; i < hi; i++ {
			p, t = emitItemTris(seed, i, out, p, t)
		}
		return Sizes{Points: p, Cells: t}, uint64(hi - lo), 0
	})
	return items
}

// Random per-item emission under any grain and worker count lands exactly
// where the serial emission puts it.
func TestEmitTrisMatchesSerialEmission(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 20; trial++ {
		seed, n := rng.Int63(), rng.Intn(5000) // n = 0: nothing to emit
		want := &TriMesh{}
		serialTris(seed, n, want)
		for _, nw := range []int{1, 2, 4} {
			pool := par.NewPool(nw)
			grain := 1 + rng.Intn(n+1)
			got := &TriMesh{}
			if counted := emitTris(pool, seed, n, grain, got); counted != uint64(n) {
				t.Fatalf("trial %d nw=%d grain=%d: fills reported %d items, want %d", trial, nw, grain, counted, n)
			}
			pool.Close()
			if err := got.Validate(); err != nil {
				t.Fatalf("trial %d nw=%d grain=%d: %v", trial, nw, grain, err)
			}
			if len(got.Points) != len(want.Points) || !reflect.DeepEqual(got.Points, want.Points) ||
				!reflect.DeepEqual(got.Scalars, want.Scalars) || !reflect.DeepEqual(got.Tris, want.Tris) {
				t.Fatalf("trial %d nw=%d grain=%d (%d items): emission differs from serial (%d vs %d triangles)",
					trial, nw, grain, n, len(got.Tris), len(want.Tris))
			}
		}
	}
}

// An emission appends: it renumbers past the triangles out already holds.
func TestEmitTrisAppendsToNonEmpty(t *testing.T) {
	pool := par.NewPool(2)
	defer pool.Close()
	want, got := &TriMesh{}, &TriMesh{}
	serialTris(1, 300, want)
	serialTris(2, 600, want)
	serialTris(1, 300, got)
	emitTris(pool, 2, 600, 64, got)
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("second emission differs from serial: %d vs %d triangles", len(got.Tris), len(want.Tris))
	}
}

// cellAction is what a trial does with grid cell c: 0 skip, 1 pass the
// hex through (corners deduplicated per chunk), 2–3 that many tets with
// fresh points.
func cellAction(seed int64, c int) int { return itemTris(seed, c) }

// tetPoint is corner k of the j-th tet cell c emits.
func tetPoint(g *UniformGrid, c, j, k int) Vec3 {
	return g.CellCenter(c).Add(Vec3{float64(j), float64(k), 0.5})
}

// serialCells is the serial emission, chunk by chunk, with the dedup the
// PointWindow replaced: hex corners through a map scoped to the chunk.
func serialCells(g *UniformGrid, carry []float64, seed int64, grain int) *UnstructuredMesh {
	out := NewUnstructuredMesh()
	for lo := 0; lo < g.NumCells(); lo += grain {
		local := map[int]int32{}
		for c := lo; c < min(lo+grain, g.NumCells()); c++ {
			switch a := cellAction(seed, c); a {
			case 1:
				var conn [8]int32
				for v, pid := range g.CellPoints(c) {
					id, ok := local[pid]
					if !ok {
						id = out.AddPoint(g.PointPosition(pid), carry[pid])
						local[pid] = id
					}
					conn[v] = id
				}
				out.AddCell(Hex, conn[:]...)
			case 2, 3:
				for j := 0; j < a; j++ {
					var conn [4]int32
					for k := range conn {
						conn[k] = out.AddPoint(tetPoint(g, c, j, k), float64(k))
					}
					out.AddCell(Tet, conn[:]...)
				}
			}
		}
	}
	return out
}

// Random per-cell emission — culled cells, hexes through a PointWindow,
// tets with fresh points — under any grain and worker count equals the
// serial emission with a chunk-scoped map.
func TestEmitCellsMatchesSerialEmission(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 12; trial++ {
		g, err := NewUniformGrid([3]int{2 + rng.Intn(9), 2 + rng.Intn(9), 2 + rng.Intn(9)}, Vec3{}, Vec3{0.5, 0.25, 1})
		if err != nil {
			t.Fatal(err)
		}
		carry := g.AddPointField("s")
		for i := range carry {
			carry[i] = rng.Float64()
		}
		seed, n := rng.Int63(), g.NumCells()
		grain := 1 + rng.Intn(n)
		want := serialCells(g, carry, seed, grain)
		for _, nw := range []int{1, 2, 4} {
			pool := par.NewPool(nw)
			wins := make([]PointWindow, nw)
			em := Count(pool, n, grain, func(lo, hi, worker int) Sizes {
				win := &wins[worker]
				win.Reset(g, lo, hi)
				var at Sizes
				c := g.WalkCells(lo)
				for ; c.Cell < hi; c.Next() {
					switch a := cellAction(seed, c.Cell); a {
					case 1:
						at = at.add(Sizes{Points: win.Mark(&c), Cells: 1, Conn: 8})
					case 2, 3:
						at = at.add(Sizes{Points: 4 * a, Cells: a, Conn: 4 * a})
					}
				}
				return at
			})
			got := em.Cells()
			em.Fill(func(lo, hi, worker int, at Sizes) (Sizes, uint64, uint64) {
				win := &wins[worker]
				win.Reset(g, lo, hi)
				w := CellWriter{Mesh: got, Next: at}
				c := g.WalkCells(lo)
				for ; c.Cell < hi; c.Next() {
					switch a := cellAction(seed, c.Cell); a {
					case 1:
						w.AddHex(&c, carry, win)
					case 2, 3:
						for j := 0; j < a; j++ {
							var conn [4]int32
							for k := range conn {
								conn[k] = w.AddPoint(tetPoint(g, c.Cell, j, k), float64(k))
							}
							w.AddCell(Tet, conn[:]...)
						}
					}
				}
				return w.Next, 0, 0
			})
			pool.Close()
			if err := got.Validate(); err != nil {
				t.Fatalf("trial %d nw=%d grain=%d: %v", trial, nw, grain, err)
			}
			if len(got.Points) != len(want.Points) || !reflect.DeepEqual(got.Points, want.Points) ||
				!reflect.DeepEqual(got.Scalars, want.Scalars) || !reflect.DeepEqual(got.Types, want.Types) ||
				!reflect.DeepEqual(got.Offsets, want.Offsets) || !reflect.DeepEqual(got.Conn, want.Conn) {
				t.Fatalf("trial %d nw=%d grain=%d (%d cells): emission differs from serial (%d vs %d points)",
					trial, nw, grain, n, len(got.Points), len(want.Points))
			}
		}
	}
}

// A fill that writes other than what its chunk counted would corrupt its
// neighbours' output: the driver refuses it.
func TestEmitFillMustMatchCount(t *testing.T) {
	pool := par.NewPool(2)
	defer pool.Close()
	em := Count(pool, 100, 10, func(lo, hi, _ int) Sizes { return Sizes{Points: hi - lo} })
	defer func() {
		var wp *par.WorkerPanic
		if r := recover(); r == nil {
			t.Fatal("a fill one point short of its count did not panic")
		} else if err, ok := r.(error); !ok || !errors.As(err, &wp) {
			t.Fatalf("panic %v, want a *par.WorkerPanic", r)
		}
	}()
	em.Fill(func(lo, hi, _ int, at Sizes) (Sizes, uint64, uint64) {
		if lo == 50 {
			at.Points--
		}
		return Sizes{Points: at.Points + hi - lo}, 0, 0
	})
}

// The emission allocates per call — the chunk offsets, the output — never
// per chunk: a loop cut into 16× more chunks allocates no more objects.
func TestEmitAllocatesPerCallNotPerChunk(t *testing.T) {
	pool := par.NewPool(1)
	defer pool.Close()
	allocs := func(grain int) float64 {
		return testing.AllocsPerRun(20, func() { emitTris(pool, 3, 4096, grain, &TriMesh{}) })
	}
	// 9 objects here (the offsets, three output arrays, the loop bodies);
	// -race adds a few.
	coarse, fine := allocs(1024), allocs(64)
	if fine > coarse || coarse > 16 {
		t.Errorf("emission allocates %.0f objects at 4 chunks and %.0f at 64: want at most 16, independent of the chunk count", coarse, fine)
	}
}
