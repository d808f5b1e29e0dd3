package mesh

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/par"
)

// itemTris is how many items cell c of a trial emits: 0–3, from a hash
// of the trial seed, so the passes agree without sharing state.
func itemTris(seed int64, c int) int { return int(mix(seed, c, 0, 0) >> 62) }

// mix hashes a trial seed with three small integers.
func mix(seed int64, a, b, c int) uint64 {
	h := uint64(seed) ^ uint64(a)*0x9E3779B97F4A7C15 ^ uint64(b)*0xC2B2AE3D27D4EB4F ^ uint64(c)*0x165667B19E3779F9
	h ^= h >> 31
	return h * 0xBF58476D1CE4E5B9
}

// testSlots are the slots the trials name points by: the grid point and
// a second, flat point at it.
var testSlots = KeySlots{N: 2, Flat: 3}

// itemKey is the key of corner v of the k-th item cell emits: slot 0 or
// 1 of one of the cell's corners.
func itemKey(seed int64, cell *CellWalk, k, v int) Key {
	h := mix(seed, cell.Cell, k, v+1)
	return PointKey(cell.Point(int(h%8)), int(h>>3%2))
}

// keyPoint is where a trial puts the point named k, and its scalar.
func keyPoint(g *UniformGrid, k Key) (Vec3, float64) {
	p := g.PointPosition(int(k >> 8))
	p[0] += float64(k&0xFF) / 4
	return p, float64(k)
}

// serialPoints numbers the points of a serial emission by key, each
// where its key is first emitted.
type serialPoints struct {
	ids     map[Key]int32
	points  []Vec3
	scalars []float64
}

func (s *serialPoints) point(k Key, p Vec3, sc float64) int32 {
	id, ok := s.ids[k]
	if !ok {
		id = int32(len(s.points))
		s.ids[k] = id
		s.points, s.scalars = append(s.points, p), append(s.scalars, sc)
	}
	return id
}

// serialTris appends the serial emission of a trial's triangles to out:
// every cell in order, its items' corners named by key.
func serialTris(g *UniformGrid, seed int64, out *TriMesh) {
	s := serialPoints{ids: map[Key]int32{}}
	base := int32(len(out.Points))
	cell := g.WalkCells(0)
	for ; cell.Cell < g.NumCells(); cell.Next() {
		for k := 0; k < itemTris(seed, cell.Cell); k++ {
			var t [3]int32
			for v := range t {
				key := itemKey(seed, &cell, k, v)
				p, sc := keyPoint(g, key)
				t[v] = base + s.point(key, p, sc)
			}
			out.Tris = append(out.Tris, t)
		}
	}
	out.Points = append(out.Points, s.points...)
	out.Scalars = append(out.Scalars, s.scalars...)
}

// triWalk emits a trial's triangles through the window and reports the
// cells it walked.
func triWalk(g *UniformGrid, seed int64) Walk {
	return func(lo, hi int, kw *KeyWindow) (uint64, uint64) {
		cell := g.WalkCells(lo)
		for ; cell.Cell < hi; cell.Next() {
			for k := 0; k < itemTris(seed, cell.Cell); k++ {
				var t [3]int32
				for v := range t {
					key := itemKey(seed, &cell, k, v)
					p, sc := keyPoint(g, key)
					t[v] = kw.Point(key, p, sc)
				}
				kw.Tri(t[0], t[1], t[2])
			}
		}
		return uint64(hi - lo), 0
	}
}

// randomGrid is a grid of 1–8 cells a side with unequal spacing.
func randomGrid(t *testing.T, rng *rand.Rand) *UniformGrid {
	g, err := NewUniformGrid([3]int{2 + rng.Intn(8), 2 + rng.Intn(8), 2 + rng.Intn(8)}, Vec3{0.5, -1, 0}, Vec3{0.5, 0.25, 1})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// Random keyed triangles under any worker count land exactly where the
// serial emission, which numbers points by key as it meets them, puts
// them.
func TestEmitTrisMatchesSerialEmission(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 20; trial++ {
		g, seed := randomGrid(t, rng), rng.Int63()
		want := &TriMesh{}
		serialTris(g, seed, want)
		for _, nw := range []int{1, 2, 4} {
			pool := par.NewPool(nw)
			got := &TriMesh{}
			var em KeyedEmission
			em.Count(pool, g, testSlots, triWalk(g, seed))
			if cells, _ := em.FillTris(triWalk(g, seed), got); cells != uint64(g.NumCells()) {
				t.Fatalf("trial %d nw=%d: walks reported %d cells, want %d", trial, nw, cells, g.NumCells())
			}
			pool.Close()
			if err := got.Validate(); err != nil {
				t.Fatalf("trial %d nw=%d: %v", trial, nw, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d nw=%d (dims %v): emission differs from serial (%d vs %d points, %d vs %d triangles)",
					trial, nw, g.Dims, len(got.Points), len(want.Points), len(got.Tris), len(want.Tris))
			}
		}
	}
}

// An emission appends: it renumbers past the triangles out already
// holds, and a second emission on the same value reuses its buffers.
func TestEmitTrisAppendsToNonEmpty(t *testing.T) {
	pool := par.NewPool(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(1))
	g := randomGrid(t, rng)
	want, got := &TriMesh{}, &TriMesh{}
	serialTris(g, 1, want)
	serialTris(g, 2, want)
	serialTris(g, 3, want)
	serialTris(g, 1, got)
	var em KeyedEmission
	for _, seed := range []int64{2, 3} {
		em.Count(pool, g, testSlots, triWalk(g, seed))
		em.FillTris(triWalk(g, seed), got)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("appended emissions differ from serial: %d vs %d triangles", len(got.Tris), len(want.Tris))
	}
}

// cellAction is what a trial does with grid cell c: 0 skip, 1 a hex on
// the cell's corners, 2–3 that many tets on keyed points.
func cellAction(seed int64, c int) int { return itemTris(seed, c) }

// serialCells is the serial emission: every cell in order, its points
// numbered by key, and the soup a per-cell emission writes: every tet
// point, and a hex's corners once per GrainFixed chunk.
func serialCells(g *UniformGrid, carry []float64, seed int64) (*UnstructuredMesh, int) {
	out := NewUnstructuredMesh()
	s := serialPoints{ids: map[Key]int32{}}
	grain := par.GrainFixed(g.NumCells())
	seen := map[int]bool{}
	soup := 0
	cell := g.WalkCells(0)
	for ; cell.Cell < g.NumCells(); cell.Next() {
		if cell.Cell%grain == 0 {
			clear(seen)
		}
		switch a := cellAction(seed, cell.Cell); a {
		case 1:
			var conn [8]int32
			for c := range conn {
				pid := cell.Point(c)
				if !seen[pid] {
					seen[pid] = true
					soup++
				}
				conn[c] = s.point(PointKey(pid, 0), cell.Corner(c), carry[pid])
			}
			out.Conn = append(out.Conn, conn[:]...)
			out.Types, out.Offsets = append(out.Types, Hex), append(out.Offsets, int32(len(out.Conn)))
		case 2, 3:
			for k := 0; k < a; k++ {
				for v := 0; v < 4; v++ {
					key := itemKey(seed, &cell, k, v)
					p, sc := keyPoint(g, key)
					out.Conn = append(out.Conn, s.point(key, p, sc))
					soup++
				}
				out.Types, out.Offsets = append(out.Types, Tet), append(out.Offsets, int32(len(out.Conn)))
			}
		}
	}
	out.Points, out.Scalars = s.points, s.scalars
	return out, soup
}

// Random per-cell emission — culled cells, whole hexes and keyed tets —
// under any worker count equals the serial emission, and the soup it
// prices is the serial soup's.
func TestEmitCellsMatchesSerialEmission(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 12; trial++ {
		g, seed := randomGrid(t, rng), rng.Int63()
		carry := g.AddPointField("s")
		for i := range carry {
			carry[i] = rng.Float64()
		}
		want, soup := serialCells(g, carry, seed)
		walk := func(lo, hi int, kw *KeyWindow) (uint64, uint64) {
			cell := g.WalkCells(lo)
			for ; cell.Cell < hi; cell.Next() {
				switch a := cellAction(seed, cell.Cell); a {
				case 1:
					kw.Hex(&cell, carry)
				case 2, 3:
					for k := 0; k < a; k++ {
						var conn [4]int32
						for v := range conn {
							key := itemKey(seed, &cell, k, v)
							p, sc := keyPoint(g, key)
							conn[v] = kw.Point(key, p, sc)
						}
						kw.Cell(Tet, conn[:]...)
					}
				}
			}
			return 0, uint64(hi - lo)
		}
		for _, nw := range []int{1, 2, 4} {
			pool := par.NewPool(nw)
			var em KeyedEmission
			em.Count(pool, g, testSlots, walk)
			got, _, cells := em.Fill(walk)
			pool.Close()
			if cells != uint64(g.NumCells()) {
				t.Fatalf("trial %d nw=%d: walks reported %d cells, want %d", trial, nw, cells, g.NumCells())
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("trial %d nw=%d: %v", trial, nw, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d nw=%d (dims %v): emission differs from serial (%d vs %d points)",
					trial, nw, g.Dims, len(got.Points), len(want.Points))
			}
			if em.Soup.Points != soup {
				t.Fatalf("trial %d nw=%d (dims %v): soup of %d points, serial %d", trial, nw, g.Dims, em.Soup.Points, soup)
			}
		}
	}
}

// A fill that writes other than what its layer counted would corrupt its
// neighbours' output: the driver refuses it. Here one layer's fill skips
// its triangles.
func TestEmitFillMustMatchCount(t *testing.T) {
	pool := par.NewPool(2)
	defer pool.Close()
	g, err := NewCubeGrid(6)
	if err != nil {
		t.Fatal(err)
	}
	filling := false
	walk := func(lo, hi int, kw *KeyWindow) (uint64, uint64) {
		if !filling || lo != 3*36 {
			triWalk(g, 5)(lo, hi, kw)
		}
		return 0, 0
	}
	var em KeyedEmission
	em.Count(pool, g, testSlots, walk)
	filling = true
	defer func() {
		var wp *par.WorkerPanic
		if r := recover(); r == nil {
			t.Fatal("a fill short of its count did not panic")
		} else if err, ok := r.(error); !ok || !errors.As(err, &wp) {
			t.Fatalf("panic %v, want a *par.WorkerPanic", r)
		}
	}()
	em.FillTris(walk, &TriMesh{})
}

// The emission allocates per call — the layer offsets, the windows, the
// seam buffers, the output — never per layer: a grid of 16× more layers
// and the same cell count allocates no more objects, and an emission
// that reuses a KeyedEmission allocates fewer.
func TestEmitAllocatesPerCallNotPerChunk(t *testing.T) {
	pool := par.NewPool(1)
	defer pool.Close()
	allocs := func(dims [3]int, reuse bool) float64 {
		g, err := NewUniformGrid(dims, Vec3{}, Vec3{1, 1, 1})
		if err != nil {
			t.Fatal(err)
		}
		walk := triWalk(g, 3)
		var kept KeyedEmission
		return testing.AllocsPerRun(20, func() {
			em := &kept
			if !reuse {
				em = &KeyedEmission{}
			}
			em.Count(pool, g, testSlots, walk)
			em.FillTris(walk, &TriMesh{})
		})
	}
	coarse, fine, reused := allocs([3]int{65, 65, 5}, false), allocs([3]int{17, 17, 65}, false), allocs([3]int{17, 17, 65}, true)
	// 18 objects here at 4 and at 64 layers (the emission, its buffers,
	// the output, the loop bodies) and 6 reused; -race adds a few.
	if fine > coarse || coarse > 24 || reused >= fine {
		t.Errorf("emission allocates %.0f objects at 4 layers, %.0f at 64 and %.0f reusing its buffers: want at most 24, no more for more layers, and fewer reused",
			coarse, fine, reused)
	}
}
