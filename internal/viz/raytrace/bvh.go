package raytrace

import (
	"math"

	"repro/internal/mesh"
	"repro/internal/par"
)

// BVH is a bounding-volume hierarchy over the triangles of a TriMesh —
// the "spatial acceleration structure" the paper's ray tracer builds each
// cycle before tracing. The production build (BuildBVHWith) is an
// allocation-light binned-SAH construction parallelized over subtrees;
// the original sort-median build is the golden tests' oracle
// (BuildBVHReference in reference_test.go).
type BVH struct {
	nodes []bvhNode
	// order holds triangle indices grouped by leaf.
	order []int32
}

type bvhNode struct {
	bounds      mesh.Bounds
	left, right int32 // children when num == 0
	start, num  int32 // leaf triangle range in order when num > 0
	// axis is the split axis of an interior node; traversal uses the ray
	// direction's sign on it to visit the nearer child first.
	axis uint8
}

// maxLeafTris is the leaf size; small leaves favor traversal flops over
// triangle tests, like production tracers.
const maxLeafTris = 4

// sahBins is the bin count of the binned-SAH sweep. Sixteen bins keep the
// per-node pass O(n) with fixed-size state (binScratch) and land within a
// few percent of a full SAH sweep.
const sahBins = 16

// BuildBVHWith constructs the hierarchy: triangle boxes and centroids are
// computed in parallel, the top of the tree is split serially until
// enough independent subtrees exist, and the subtrees build concurrently
// on pool (nil selects the default pool), each appending to its own node
// slice (no per-node sorting, no per-level allocation). The stitched tree
// is then allocated once, at its final length. It returns nil for an
// empty mesh.
func BuildBVHWith(m *mesh.TriMesh, pool *par.Pool) *BVH {
	n := m.NumTris()
	if n == 0 {
		return nil
	}
	if pool == nil {
		pool = par.Default()
	}
	b := &BVH{order: make([]int32, n)}
	bd := &bvhBuilder{order: b.order, prims: make([]prim, n), bins: make([]uint8, n)}
	pool.For(n, 0, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			tr := m.Tris[i]
			p0, p1, p2 := &m.Points[tr[0]], &m.Points[tr[1]], &m.Points[tr[2]]
			pr := &bd.prims[i]
			pr.box = mesh.Bounds{Lo: *p0, Hi: *p0}
			growPoint(&pr.box, p1)
			growPoint(&pr.box, p2)
			pr.cent = p0.Add(*p1).Add(*p2).Scale(1.0 / 3)
			bd.order[i] = int32(i)
		}
	})

	// Subtrees at or below this size become parallel jobs; the serial
	// top-of-tree expansion above them is logarithmically shallow. A mesh
	// of at most grain triangles is one job below a one-placeholder top.
	grain := max(n/(4*pool.Workers()), 2048)
	type subtree struct {
		lo, hi int
		ext    extent
		slot   int32 // placeholder node index in top
	}
	var (
		top  []bvhNode
		jobs []subtree
		sc   binScratch
	)
	var expand func(lo, hi int, ext extent) int32
	expand = func(lo, hi int, ext extent) int32 {
		idx := int32(len(top))
		if hi-lo <= grain {
			// Placeholder: filled by the job's subtree root.
			top = append(top, bvhNode{})
			jobs = append(jobs, subtree{lo: lo, hi: hi, ext: ext, slot: idx})
			return idx
		}
		top = append(top, bvhNode{bounds: ext.geom})
		mid, axis, l, r := bd.split(&sc, lo, hi, ext.cents)
		top[idx].axis = axis
		left := expand(lo, mid, l)
		right := expand(mid, hi, r)
		top[idx].left = left
		top[idx].right = right
		return idx
	}
	expand(0, n, bd.rangeBounds(0, n))

	// Build every subtree concurrently, each appending to its own slice.
	// A subtree of k triangles has at most 2k-1 nodes, but binned-SAH
	// trees with four-triangle leaves have about 0.7k, so a slice of
	// capacity 3k/4 seldom grows.
	local := make([][]bvhNode, len(jobs))
	pool.ForEach(len(jobs), func(i, _ int) {
		j := jobs[i]
		var sc binScratch
		local[i], _ = bd.build(&sc, make([]bvhNode, 0, 3*(j.hi-j.lo)/4+1), j.lo, j.hi, j.ext)
	})
	// The per-triangle scratch is dead once the subtrees are built; drop it
	// before the tree's final storage is allocated, so the two never have
	// to be live at once.
	bd.prims, bd.bins = nil, nil

	// Stitch into storage of the final length: local index 0 replaces the
	// placeholder; local c > 0 lands at base+c-1, base counting every node
	// placed before the job's. Child links inside each subtree shift
	// accordingly.
	total := len(top)
	for _, nodes := range local {
		total += len(nodes) - 1
	}
	b.nodes = make([]bvhNode, total)
	copy(b.nodes, top)
	base := int32(len(top))
	for i, j := range jobs {
		remap := func(c int32) int32 {
			if c == 0 {
				return j.slot
			}
			return base + c - 1
		}
		for c, nd := range local[i] {
			if nd.num == 0 {
				nd.left = remap(nd.left)
				nd.right = remap(nd.right)
			}
			b.nodes[remap(int32(c))] = nd
		}
		base += int32(len(local[i]) - 1)
		local[i] = nil
	}
	return b
}

// prim is what the build keeps of a triangle: its box and centroid.
type prim struct {
	box  mesh.Bounds
	cent mesh.Vec3
}

// bvhBuilder carries the triangle ordering being permuted in place and,
// position by position beside it, each triangle's prim and bin scratch:
// entry p of prims and bins belongs to triangle order[p], and the
// partition moves order and prims together, so every pass over a node's
// range streams. Disjoint [lo, hi) ranges touch disjoint slices of every
// array, so subtree jobs need no locking.
type bvhBuilder struct {
	order []int32
	prims []prim
	// bins[p] is the SAH bin of the triangle at position p at the node
	// currently being split: written by the binning pass and read once by
	// the partition pass, which therefore does not move it.
	bins []uint8
}

// extent is what a node needs to know of its triangles: the bounds of
// their geometry (the node's box) and of their centroids (where split
// bins them).
type extent struct{ geom, cents mesh.Bounds }

var emptyExtent = extent{mesh.EmptyBounds(), mesh.EmptyBounds()}

// grow widens b to hold o. Every bounds pass of the build, triangle boxes
// included, uses the min and max builtins: they compile branch-free, and
// IEEE minimum and maximum are commutative and associative (a NaN
// propagates, -0 orders below +0), so a box is the same value whichever
// pass derived it and in whatever order.
func grow(b, o *mesh.Bounds) {
	b.Lo = mesh.Vec3{min(b.Lo[0], o.Lo[0]), min(b.Lo[1], o.Lo[1]), min(b.Lo[2], o.Lo[2])}
	b.Hi = mesh.Vec3{max(b.Hi[0], o.Hi[0]), max(b.Hi[1], o.Hi[1]), max(b.Hi[2], o.Hi[2])}
}

// growPoint widens b to hold p.
func growPoint(b *mesh.Bounds, p *mesh.Vec3) {
	b.Lo = mesh.Vec3{min(b.Lo[0], p[0]), min(b.Lo[1], p[1]), min(b.Lo[2], p[2])}
	b.Hi = mesh.Vec3{max(b.Hi[0], p[0]), max(b.Hi[1], p[1]), max(b.Hi[2], p[2])}
}

// rangeBounds derives the extent of the triangles at positions [lo, hi)
// in one pass over them. Only the root and the two sides of an even split
// need it: a binned split hands each side its extent from its sweeps.
func (bd *bvhBuilder) rangeBounds(lo, hi int) extent {
	e := emptyExtent
	for p := lo; p < hi; p++ {
		pr := &bd.prims[p]
		grow(&e.geom, &pr.box)
		growPoint(&e.cents, &pr.cent)
	}
	return e
}

// build recursively constructs the subtree over order[lo:hi], whose
// extent is ext, into nodes, returning the extended slice and the subtree
// root's index.
func (bd *bvhBuilder) build(sc *binScratch, nodes []bvhNode, lo, hi int, ext extent) ([]bvhNode, int32) {
	idx := int32(len(nodes))
	nodes = append(nodes, bvhNode{bounds: ext.geom})
	if hi-lo <= maxLeafTris {
		nodes[idx].start = int32(lo)
		nodes[idx].num = int32(hi - lo)
		return nodes, idx
	}
	mid, axis, l, r := bd.split(sc, lo, hi, ext.cents)
	nodes[idx].axis = axis
	var left, right int32
	nodes, left = bd.build(sc, nodes, lo, mid, l)
	nodes, right = bd.build(sc, nodes, mid, hi, r)
	nodes[idx].left = left
	nodes[idx].right = right
	return nodes, idx
}

func surfaceArea(b *mesh.Bounds) float64 {
	dx, dy, dz := b.Hi[0]-b.Lo[0], b.Hi[1]-b.Lo[1], b.Hi[2]-b.Lo[2]
	return 2 * (dx*dy + dy*dz + dz*dx)
}

// binScratch is one split's fixed-size state: each bin's count and
// extent and, at each non-empty bin, the union of it and every bin to its
// right (its suffix) with that union's count and area. Only cnt is
// cleared per split; every other entry is written before it is read, so
// one builder goroutine reuses one binScratch for all its splits.
type binScratch struct {
	cnt     [sahBins]int32
	bins    [sahBins]extent
	suf     [sahBins]extent
	sufCnt  [sahBins]int32
	sufArea [sahBins]float64
}

// split partitions order[lo:hi] about a binned-SAH split on the longest
// axis of the centroid bounds cb and returns the partition point, the
// axis and each side's extent. The whole pass is O(hi-lo) with fixed
// state: one binning sweep that also gathers every bin's extent, two
// sweeps over the non-empty bins, one in-place two-pointer partition over
// the cached per-triangle bins. A boundary at an empty bin costs and
// partitions exactly as the next non-empty bin's does, so only non-empty
// bins are candidates. The right-to-left sweep keeps every candidate's
// suffix union and the left-to-right sweep turns the bins into prefix
// unions in place, so the winner's two sides have their extents without
// another pass. Degenerate spreads (all centroids in one bin) fall back to
// an even split so progress is guaranteed; its sides' extents are derived
// from their triangles.
func (bd *bvhBuilder) split(sc *binScratch, lo, hi int, cb mesh.Bounds) (int, uint8, extent, extent) {
	size := cb.Size()
	axis := uint8(0)
	if size[1] > size[axis] {
		axis = 1
	}
	if size[2] > size[axis] {
		axis = 2
	}
	spread := size[axis]
	if !(spread > 0) {
		return bd.even(lo, hi, axis)
	}
	scale := sahBins / spread
	origin := cb.Lo[axis]
	sc.cnt = [sahBins]int32{}
	for p := lo; p < hi; p++ {
		pr := &bd.prims[p]
		bin := int((pr.cent[axis] - origin) * scale)
		if bin >= sahBins {
			bin = sahBins - 1
		}
		bd.bins[p] = uint8(bin)
		e := &sc.bins[bin]
		if sc.cnt[bin] == 0 {
			// A bin's first triangle sets its extent, so empty bins are
			// never written.
			*e = extent{pr.box, mesh.Bounds{Lo: pr.cent, Hi: pr.cent}}
		} else {
			grow(&e.geom, &pr.box)
			growPoint(&e.cents, &pr.cent)
		}
		sc.cnt[bin]++
	}
	// Right to left: each non-empty bin's suffix.
	next := -1
	for i := sahBins - 1; i >= 1; i-- {
		if sc.cnt[i] == 0 {
			continue
		}
		suf := &sc.suf[i]
		*suf = sc.bins[i]
		sc.sufCnt[i] = sc.cnt[i]
		if next >= 0 {
			grow(&suf.geom, &sc.suf[next].geom)
			grow(&suf.cents, &sc.suf[next].cents)
			sc.sufCnt[i] += sc.sufCnt[next]
		}
		sc.sufArea[i] = surfaceArea(&suf.geom)
		next = i
	}
	// Left to right: the SAH cost at each candidate, the first minimum
	// winning, while each non-empty bin becomes its prefix union.
	bestCost := math.Inf(1)
	bestSplit, bestLeft := -1, -1
	prev := -1
	cl := int32(0)
	area := 0.0
	for s := 0; s < sahBins; s++ {
		if sc.cnt[s] == 0 {
			continue
		}
		if prev >= 0 {
			if cost := float64(cl)*area + float64(sc.sufCnt[s])*sc.sufArea[s]; cost < bestCost {
				bestCost, bestSplit, bestLeft = cost, s, prev
			}
			pre := &sc.bins[s]
			grow(&pre.geom, &sc.bins[prev].geom)
			grow(&pre.cents, &sc.bins[prev].cents)
		}
		cl += sc.cnt[s]
		area = surfaceArea(&sc.bins[s].geom)
		prev = s
	}
	if bestSplit < 0 {
		return bd.even(lo, hi, axis)
	}
	bs := uint8(bestSplit)
	i, j := lo, hi-1
	for i <= j {
		for i <= j && bd.bins[i] < bs {
			i++
		}
		for i <= j && bd.bins[j] >= bs {
			j--
		}
		if i < j {
			// Positions i and j are not visited again, so their bins stay.
			bd.order[i], bd.order[j] = bd.order[j], bd.order[i]
			bd.prims[i], bd.prims[j] = bd.prims[j], bd.prims[i]
			i++
			j--
		}
	}
	// Both sides are non-empty: the chosen boundary has triangles on
	// either side of it.
	return i, axis, sc.bins[bestLeft], sc.suf[bestSplit]
}

// even splits [lo, hi) at its middle position: the fallback when the
// centroids do not spread. Each side's extent is derived from its
// triangles.
func (bd *bvhBuilder) even(lo, hi int, axis uint8) (int, uint8, extent, extent) {
	mid := lo + (hi-lo)/2
	return mid, axis, bd.rangeBounds(lo, mid), bd.rangeBounds(mid, hi)
}

// NumNodes returns the node count (for size accounting).
func (b *BVH) NumNodes() int { return len(b.nodes) }

// Root returns the root node's box, the bounds of every triangle; ok is
// false for the empty hierarchy (nil), which no ray enters.
func (b *BVH) Root() (box mesh.Bounds, ok bool) {
	if b == nil || len(b.nodes) == 0 {
		return mesh.Bounds{}, false
	}
	return b.nodes[0].bounds, true
}

// TraverseStats counts the work rays performed, feeding the frame's
// price (frameCost).
type TraverseStats struct {
	NodesVisited int
	TriTests     int
}

// Hit describes the nearest intersection of a ray with the mesh.
type Hit struct {
	T    float64
	Tri  int32
	U, V float64
}

// closer reports whether a hit at (t, ti) beats best. Ties on t resolve
// to the lower triangle index, which makes the nearest-hit record
// independent of traversal order: brute force, the reference BVH, and
// the ordered BVH all return bit-identical hits.
func closer(t float64, ti int32, best Hit) bool {
	return t < best.T || (t == best.T && ti < best.Tri)
}

// Intersect finds the nearest triangle hit by the ray, accumulating
// traversal statistics into stats (which may be nil). Traversal is
// front-to-back: interior nodes descend into the child on the ray's
// entering side of the split axis first, so the nearest hit tightens the
// ray-slab early-out (boxes beyond the current best are culled) as early
// as possible.
//
// The loop is the hot path of every traced frame, so its two tests are
// written out in place: the slab test is mesh.RaySlab over [0, best.T]
// unrolled over the three axes (same order, same comparisons), and the
// leaf test is the Möller–Trumbore ray/triangle test (the test oracle
// triIntersect in reference_test.go) with the ray's components in locals.
// Both evaluate exactly the arithmetic of RaySlab and triIntersect, so
// hits are bit-identical.
func (b *BVH) Intersect(m *mesh.TriMesh, orig, dir mesh.Vec3, stats *TraverseStats) (Hit, bool) {
	if b == nil || len(b.nodes) == 0 {
		return Hit{}, false
	}
	ox, oy, oz := orig[0], orig[1], orig[2]
	dx, dy, dz := dir[0], dir[1], dir[2]
	ix, iy, iz := mesh.SafeRecip(dx), mesh.SafeRecip(dy), mesh.SafeRecip(dz)
	best := Hit{T: math.Inf(1), Tri: -1}
	// A tree deeper than the fixed stack (a chain of geometrically spaced
	// triangles) spills it to the heap; nothing is ever skipped.
	var fixed [64]int32
	stack := append(fixed[:0], 0)
	nodes, tris := 0, 0
	for len(stack) > 0 {
		top := len(stack) - 1
		node := &b.nodes[stack[top]]
		stack = stack[:top]
		nodes++
		// The slab test. An axis whose slab distance is NaN (an
		// axis-parallel ray starting on the face) constrains nothing.
		t0, t1 := 0.0, best.T
		bb := &node.bounds
		ta := (bb.Lo[0] - ox) * ix
		tb := (bb.Hi[0] - ox) * ix
		if ta > tb {
			ta, tb = tb, ta
		}
		if ta > t0 {
			t0 = ta
		}
		if tb < t1 {
			t1 = tb
		}
		ta = (bb.Lo[1] - oy) * iy
		tb = (bb.Hi[1] - oy) * iy
		if ta > tb {
			ta, tb = tb, ta
		}
		if ta > t0 {
			t0 = ta
		}
		if tb < t1 {
			t1 = tb
		}
		ta = (bb.Lo[2] - oz) * iz
		tb = (bb.Hi[2] - oz) * iz
		if ta > tb {
			ta, tb = tb, ta
		}
		if ta > t0 {
			t0 = ta
		}
		if tb < t1 {
			t1 = tb
		}
		if !(t0 <= t1) {
			continue
		}
		if node.num > 0 {
			for _, ti := range b.order[node.start : node.start+node.num] {
				tris++
				tr := &m.Tris[ti]
				p0, p1, p2 := &m.Points[tr[0]], &m.Points[tr[1]], &m.Points[tr[2]]
				e1x, e1y, e1z := p1[0]-p0[0], p1[1]-p0[1], p1[2]-p0[2]
				e2x, e2y, e2z := p2[0]-p0[0], p2[1]-p0[1], p2[2]-p0[2]
				// pvec = dir × e2
				px := dy*e2z - dz*e2y
				py := dz*e2x - dx*e2z
				pz := dx*e2y - dy*e2x
				det := e1x*px + e1y*py + e1z*pz
				if math.Abs(det) < 1e-15 {
					continue
				}
				inv := 1 / det
				tx, ty, tz := ox-p0[0], oy-p0[1], oz-p0[2]
				u := (tx*px + ty*py + tz*pz) * inv
				if u < 0 || u > 1 {
					continue
				}
				// qvec = tvec × e1
				qx := ty*e1z - tz*e1y
				qy := tz*e1x - tx*e1z
				qz := tx*e1y - ty*e1x
				v := (dx*qx + dy*qy + dz*qz) * inv
				if v < 0 || u+v > 1 {
					continue
				}
				t := (e2x*qx + e2y*qy + e2z*qz) * inv
				if t <= 1e-12 {
					continue
				}
				if closer(t, ti, best) {
					best = Hit{T: t, Tri: ti, U: u, V: v}
				}
			}
			continue
		}
		near, far := node.left, node.right
		if dir[node.axis] < 0 {
			near, far = far, near
		}
		stack = append(stack, far, near) // near is popped first
	}
	if stats != nil {
		stats.NodesVisited += nodes
		stats.TriTests += tris
	}
	return best, best.Tri >= 0
}
