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
// per-node pass O(n) with fixed stack-allocated state and land within a
// few percent of a full SAH sweep.
const sahBins = 16

// BuildBVHWith constructs the hierarchy: centroids and triangle boxes are
// computed in parallel, the top of the tree is split serially until
// enough independent subtrees exist, and the subtrees build concurrently
// on pool (nil selects the default pool), each into preallocated node
// storage (no per-node sorting, no per-level allocation). It returns nil
// for an empty mesh.
func BuildBVHWith(m *mesh.TriMesh, pool *par.Pool) *BVH {
	n := m.NumTris()
	if n == 0 {
		return nil
	}
	if pool == nil {
		pool = par.Default()
	}
	b := &BVH{order: make([]int32, n)}
	bd := &bvhBuilder{
		order: b.order,
		cents: make([]mesh.Vec3, n),
		boxes: make([]mesh.Bounds, n),
		bins:  make([]uint8, n),
	}
	pool.For(n, 0, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			tr := m.Tris[i]
			p0, p1, p2 := m.Points[tr[0]], m.Points[tr[1]], m.Points[tr[2]]
			bb := mesh.EmptyBounds()
			bb.Extend(p0)
			bb.Extend(p1)
			bb.Extend(p2)
			bd.boxes[i] = bb
			bd.cents[i] = p0.Add(p1).Add(p2).Scale(1.0 / 3)
			bd.order[i] = int32(i)
		}
	})

	// Subtrees at or below this size become parallel jobs; the serial
	// top-of-tree expansion above them is logarithmically shallow.
	grain := n / (4 * pool.Workers())
	if grain < 2048 {
		grain = 2048
	}
	root := bd.rangeBounds(0, n)
	if n <= grain {
		b.nodes = make([]bvhNode, 0, 2*n)
		b.nodes, _ = bd.build(b.nodes, 0, n, root)
		return b
	}

	type subtree struct {
		lo, hi int
		ext    extent
		slot   int32 // placeholder node index in b.nodes
	}
	var jobs []subtree
	b.nodes = make([]bvhNode, 0, 2*n)
	var expand func(lo, hi int, ext extent) int32
	expand = func(lo, hi int, ext extent) int32 {
		if hi-lo <= grain {
			// Placeholder: filled by the job's subtree root.
			idx := int32(len(b.nodes))
			b.nodes = append(b.nodes, bvhNode{})
			jobs = append(jobs, subtree{lo: lo, hi: hi, ext: ext, slot: idx})
			return idx
		}
		idx := int32(len(b.nodes))
		b.nodes = append(b.nodes, bvhNode{bounds: ext.geom})
		mid, axis, l, r := bd.split(lo, hi, ext.cents)
		b.nodes[idx].axis = axis
		left := expand(lo, mid, l)
		right := expand(mid, hi, r)
		b.nodes[idx].left = left
		b.nodes[idx].right = right
		return idx
	}
	expand(0, n, root)

	// Build every subtree concurrently into its own preallocated storage.
	local := make([][]bvhNode, len(jobs))
	pool.ForEach(len(jobs), func(i, _ int) {
		j := jobs[i]
		nodes := make([]bvhNode, 0, 2*(j.hi-j.lo))
		nodes, _ = bd.build(nodes, j.lo, j.hi, j.ext)
		local[i] = nodes
	})

	// Stitch: local index 0 replaces the placeholder; local c > 0 lands
	// at base+c-1. Child links inside each subtree shift accordingly.
	for i, j := range jobs {
		nodes := local[i]
		base := int32(len(b.nodes))
		remap := func(c int32) int32 {
			if c == 0 {
				return j.slot
			}
			return base + c - 1
		}
		root := nodes[0]
		if root.num == 0 {
			root.left = remap(root.left)
			root.right = remap(root.right)
		}
		b.nodes[j.slot] = root
		for _, nd := range nodes[1:] {
			if nd.num == 0 {
				nd.left = remap(nd.left)
				nd.right = remap(nd.right)
			}
			b.nodes = append(b.nodes, nd)
		}
	}
	return b
}

// bvhBuilder carries the triangle ordering being permuted in place and,
// position by position beside it, each triangle's centroid, box and bin
// scratch: entry p of cents, boxes and bins belongs to triangle order[p],
// and the partition moves all four together, so every pass over a node's
// range streams. Disjoint [lo, hi) ranges touch disjoint slices of every
// array, so subtree jobs need no locking.
type bvhBuilder struct {
	order []int32
	cents []mesh.Vec3
	boxes []mesh.Bounds
	// bins[p] is the SAH bin of the triangle at position p at the node
	// currently being split (written by the binning pass, read by the
	// partition pass).
	bins []uint8
}

// swap exchanges the triangles at positions i and j.
func (bd *bvhBuilder) swap(i, j int) {
	bd.order[i], bd.order[j] = bd.order[j], bd.order[i]
	bd.cents[i], bd.cents[j] = bd.cents[j], bd.cents[i]
	bd.boxes[i], bd.boxes[j] = bd.boxes[j], bd.boxes[i]
	bd.bins[i], bd.bins[j] = bd.bins[j], bd.bins[i]
}

// extent is what a node needs to know of its triangles: the bounds of
// their geometry (the node's box) and of their centroids (where split
// bins them).
type extent struct{ geom, cents mesh.Bounds }

var emptyExtent = extent{mesh.EmptyBounds(), mesh.EmptyBounds()}

// grow widens b to hold o. Every bounds pass of the build compares
// explicitly (a NaN coordinate never wins), so a box is the same value
// whichever pass derived it and in whatever order.
func grow(b, o *mesh.Bounds) {
	for a := 0; a < 3; a++ {
		if o.Lo[a] < b.Lo[a] {
			b.Lo[a] = o.Lo[a]
		}
		if o.Hi[a] > b.Hi[a] {
			b.Hi[a] = o.Hi[a]
		}
	}
}

// growPoint widens b to hold p.
func growPoint(b *mesh.Bounds, p *mesh.Vec3) {
	for a := 0; a < 3; a++ {
		if p[a] < b.Lo[a] {
			b.Lo[a] = p[a]
		}
		if p[a] > b.Hi[a] {
			b.Hi[a] = p[a]
		}
	}
}

// rangeBounds derives the extent of the triangles at positions [lo, hi)
// in one pass over them. Only the root and the two sides of an even split
// need it: a binned split hands each side its extent from its bins.
func (bd *bvhBuilder) rangeBounds(lo, hi int) extent {
	e := emptyExtent
	for p := lo; p < hi; p++ {
		grow(&e.geom, &bd.boxes[p])
		growPoint(&e.cents, &bd.cents[p])
	}
	return e
}

// build recursively constructs the subtree over order[lo:hi], whose
// extent is ext, into nodes, returning the extended slice and the subtree
// root's index.
func (bd *bvhBuilder) build(nodes []bvhNode, lo, hi int, ext extent) ([]bvhNode, int32) {
	idx := int32(len(nodes))
	nodes = append(nodes, bvhNode{bounds: ext.geom})
	if hi-lo <= maxLeafTris {
		nodes[idx].start = int32(lo)
		nodes[idx].num = int32(hi - lo)
		return nodes, idx
	}
	mid, axis, l, r := bd.split(lo, hi, ext.cents)
	nodes[idx].axis = axis
	var left, right int32
	nodes, left = bd.build(nodes, lo, mid, l)
	nodes, right = bd.build(nodes, mid, hi, r)
	nodes[idx].left = left
	nodes[idx].right = right
	return nodes, idx
}

func surfaceArea(b *mesh.Bounds) float64 {
	s := b.Size()
	return 2 * (s[0]*s[1] + s[1]*s[2] + s[2]*s[0])
}

// split partitions order[lo:hi] about a binned-SAH split on the longest
// axis of the centroid bounds cb and returns the partition point, the
// axis and each side's extent. The whole pass is O(hi-lo) with fixed
// stack state: one binning sweep that also gathers every bin's extent,
// two 16-entry cost sweeps, one in-place two-pointer partition over the
// cached per-triangle bins. A side's extent is then the union of its
// bins'. Degenerate spreads (all centroids in one bin) fall back to an
// even split so progress is guaranteed; its sides' extents are derived
// from their triangles.
func (bd *bvhBuilder) split(lo, hi int, cb mesh.Bounds) (mid int, axis uint8, left, right extent) {
	even := func() (int, uint8, extent, extent) {
		mid := lo + (hi-lo)/2
		return mid, axis, bd.rangeBounds(lo, mid), bd.rangeBounds(mid, hi)
	}
	size := cb.Size()
	if size[1] > size[axis] {
		axis = 1
	}
	if size[2] > size[axis] {
		axis = 2
	}
	spread := size[axis]
	if !(spread > 0) {
		return even()
	}
	scale := sahBins / spread
	origin := cb.Lo[axis]
	var cnt [sahBins]int
	var bins [sahBins]extent
	for i := range bins {
		bins[i] = emptyExtent
	}
	for p := lo; p < hi; p++ {
		bin := int((bd.cents[p][axis] - origin) * scale)
		if bin >= sahBins {
			bin = sahBins - 1
		}
		bd.bins[p] = uint8(bin)
		cnt[bin]++
		grow(&bins[bin].geom, &bd.boxes[p])
		growPoint(&bins[bin].cents, &bd.cents[p])
	}
	// Right-to-left suffix areas, then a left-to-right sweep of the SAH
	// cost at each bin boundary. An empty bin leaves the running union, and
	// so its area, as it was: small nodes leave most bins empty.
	var sufArea [sahBins]float64
	var sufCnt [sahBins]int
	acc := mesh.EmptyBounds()
	area, c := 0.0, 0
	for i := sahBins - 1; i >= 1; i-- {
		if cnt[i] > 0 {
			grow(&acc, &bins[i].geom)
			c += cnt[i]
			area = surfaceArea(&acc)
		}
		sufArea[i] = area
		sufCnt[i] = c
	}
	bestCost := math.Inf(1)
	bestSplit := -1
	acc = mesh.EmptyBounds()
	cl := 0
	for s := 1; s < sahBins; s++ {
		if cnt[s-1] > 0 {
			grow(&acc, &bins[s-1].geom)
			cl += cnt[s-1]
			area = surfaceArea(&acc)
		}
		if cl == 0 || sufCnt[s] == 0 {
			continue
		}
		cost := float64(cl)*area + float64(sufCnt[s])*sufArea[s]
		if cost < bestCost {
			bestCost = cost
			bestSplit = s
		}
	}
	if bestSplit < 0 {
		return even()
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
			bd.swap(i, j)
			i++
			j--
		}
	}
	// Both sides are non-empty: the chosen boundary has triangles on
	// either side of it.
	left, right = emptyExtent, emptyExtent
	for b := range bins {
		side := &left
		if b >= bestSplit {
			side = &right
		}
		grow(&side.geom, &bins[b].geom)
		grow(&side.cents, &bins[b].cents)
	}
	return i, axis, left, right
}

// NumNodes returns the node count (for size accounting).
func (b *BVH) NumNodes() int { return len(b.nodes) }

// TraverseStats counts the work one ray performed, feeding the operation
// recorders.
type TraverseStats struct {
	NodesVisited int
	TriTests     int
}

// triIntersect is the Möller–Trumbore ray/triangle test. It returns the
// hit parameter and barycentrics, or ok=false.
func triIntersect(orig, dir, p0, p1, p2 mesh.Vec3) (t, u, v float64, ok bool) {
	e1 := p1.Sub(p0)
	e2 := p2.Sub(p0)
	pvec := dir.Cross(e2)
	det := e1.Dot(pvec)
	if math.Abs(det) < 1e-15 {
		return 0, 0, 0, false
	}
	inv := 1 / det
	tvec := orig.Sub(p0)
	u = tvec.Dot(pvec) * inv
	if u < 0 || u > 1 {
		return 0, 0, 0, false
	}
	qvec := tvec.Cross(e1)
	v = dir.Dot(qvec) * inv
	if v < 0 || u+v > 1 {
		return 0, 0, 0, false
	}
	t = e2.Dot(qvec) * inv
	if t <= 1e-12 {
		return 0, 0, 0, false
	}
	return t, u, v, true
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
func (b *BVH) Intersect(m *mesh.TriMesh, orig, dir mesh.Vec3, stats *TraverseStats) (Hit, bool) {
	if b == nil || len(b.nodes) == 0 {
		return Hit{}, false
	}
	invDir := mesh.SafeInvDir(dir)
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
		if _, _, ok := mesh.RayBoxInv(orig, invDir, node.bounds, 0, best.T); !ok {
			continue
		}
		if node.num > 0 {
			for _, ti := range b.order[node.start : node.start+node.num] {
				tris++
				tr := m.Tris[ti]
				t, u, v, ok := triIntersect(orig, dir, m.Points[tr[0]], m.Points[tr[1]], m.Points[tr[2]])
				if ok && closer(t, ti, best) {
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
