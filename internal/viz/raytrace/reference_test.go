package raytrace

import (
	"math"
	"sort"

	"repro/internal/mesh"
)

// BuildBVHReference is the original construction: recursive median splits
// on the longest centroid-bounds axis, ordering each segment with
// sort.Slice. Kept as the correctness oracle for the binned-SAH build
// (the golden test demands bit-identical hit records from both trees).
func BuildBVHReference(m *mesh.TriMesh) *BVH {
	n := m.NumTris()
	if n == 0 {
		return nil
	}
	b := &BVH{order: make([]int32, n)}
	cents := make([]mesh.Vec3, n)
	boxes := make([]mesh.Bounds, n)
	for i, tr := range m.Tris {
		p0, p1, p2 := m.Points[tr[0]], m.Points[tr[1]], m.Points[tr[2]]
		bb := mesh.EmptyBounds()
		growPoint(&bb, &p0)
		growPoint(&bb, &p1)
		growPoint(&bb, &p2)
		boxes[i] = bb
		cents[i] = p0.Add(p1).Add(p2).Scale(1.0 / 3)
		b.order[i] = int32(i)
	}
	b.buildReference(0, n, cents, boxes)
	return b
}

// buildReference recursively partitions order[lo:hi] by sorted median and
// returns the node index.
func (b *BVH) buildReference(lo, hi int, cents []mesh.Vec3, boxes []mesh.Bounds) int32 {
	bb := mesh.EmptyBounds()
	cb := mesh.EmptyBounds()
	for _, ti := range b.order[lo:hi] {
		grow(&bb, &boxes[ti])
		growPoint(&cb, &cents[ti])
	}
	idx := int32(len(b.nodes))
	b.nodes = append(b.nodes, bvhNode{bounds: bb})
	if hi-lo <= maxLeafTris {
		b.nodes[idx].start = int32(lo)
		b.nodes[idx].num = int32(hi - lo)
		return idx
	}
	// Longest axis of the centroid bounds; median split.
	size := cb.Size()
	axis := 0
	if size[1] > size[axis] {
		axis = 1
	}
	if size[2] > size[axis] {
		axis = 2
	}
	seg := b.order[lo:hi]
	mid := len(seg) / 2
	sort.Slice(seg, func(i, j int) bool {
		return cents[seg[i]][axis] < cents[seg[j]][axis]
	})
	b.nodes[idx].axis = uint8(axis)
	left := b.buildReference(lo, lo+mid, cents, boxes)
	right := b.buildReference(lo+mid, hi, cents, boxes)
	b.nodes[idx].left = left
	b.nodes[idx].right = right
	return idx
}

// IntersectReference is the original unordered traversal: children are
// pushed left-then-right regardless of the ray direction, and a node's
// box is tested only against the current best (no front-to-back
// descent). With the tie-break in closer it returns the same hit record
// as Intersect — the golden test holds the two bit-identical.
func (b *BVH) IntersectReference(m *mesh.TriMesh, orig, dir mesh.Vec3, stats *TraverseStats) (Hit, bool) {
	if b == nil || len(b.nodes) == 0 {
		return Hit{}, false
	}
	ix, iy, iz := mesh.SafeRecip(dir[0]), mesh.SafeRecip(dir[1]), mesh.SafeRecip(dir[2])
	best := Hit{T: math.Inf(1), Tri: -1}
	var stack [64]int32
	sp := 0
	stack[sp] = 0
	sp++
	nodes, tris := 0, 0
	for sp > 0 {
		sp--
		node := &b.nodes[stack[sp]]
		nodes++
		if _, _, ok := mesh.RaySlab(orig[0], orig[1], orig[2], ix, iy, iz, &node.bounds, 0, best.T); !ok {
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
		if sp+2 <= len(stack) {
			stack[sp] = node.left
			sp++
			stack[sp] = node.right
			sp++
		}
	}
	if stats != nil {
		stats.NodesVisited += nodes
		stats.TriTests += tris
	}
	return best, best.Tri >= 0
}

// BruteForceIntersect finds the nearest hit by testing every triangle,
// with no acceleration structure: the correctness oracle for both trees
// and both traversals.
func BruteForceIntersect(m *mesh.TriMesh, orig, dir mesh.Vec3) (Hit, bool) {
	best := Hit{T: math.Inf(1), Tri: -1}
	for ti, tr := range m.Tris {
		t, u, v, ok := triIntersect(orig, dir, m.Points[tr[0]], m.Points[tr[1]], m.Points[tr[2]])
		if ok && closer(t, int32(ti), best) {
			best = Hit{T: t, Tri: int32(ti), U: u, V: v}
		}
	}
	return best, best.Tri >= 0
}

// triIntersect is the Möller–Trumbore ray/triangle test, as the
// production tree called it before BVH.Intersect wrote it out in its leaf
// loop. It returns the hit parameter and barycentrics, or ok=false; the
// brute-force and reference-tree oracles below test every triangle
// through it.
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
