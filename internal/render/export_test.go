package render

import (
	"fmt"
	"io"

	"repro/internal/mesh"
)

// Exported only to this package's tests: nothing else calls these, so
// they are declared here and not in the production tree.

// WritePPM encodes the image as a binary PPM (P6), handy when no PNG
// viewer is around.
func (im *Image) WritePPM(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "P6\n%d %d\n255\n", im.W, im.H); err != nil {
		return err
	}
	buf := make([]byte, 0, im.W*im.H*3)
	for _, c := range im.Pix {
		buf = append(buf, to8(c[0]), to8(c[1]), to8(c[2]))
	}
	_, err := w.Write(buf)
	return err
}

// Add sums two colors channel-wise (including alpha).
func (c Color) Add(o Color) Color {
	return Color{c[0] + o[0], c[1] + o[1], c[2] + o[2], c[3] + o[3]}
}

// Set writes pixel (x, y); out-of-range coordinates are ignored.
func (im *Image) Set(x, y int, c Color) {
	if x < 0 || y < 0 || x >= im.W || y >= im.H {
		return
	}
	im.Pix[y*im.W+x] = c
}

// Ray returns the world-space ray through pixel (px, py) of a w×h image
// (pixel centers). Loops generating many rays should build one
// Camera.Frame and call Frame.Ray instead: this convenience form rebuilds
// the basis and re-evaluates math.Tan on every call.
func (c Camera) Ray(px, py, w, h int) (orig, dir mesh.Vec3) {
	f := c.Frame(w, h)
	dx, dy, dz := f.Ray(px, py)
	return f.Eye, mesh.Vec3{dx, dy, dz}
}

// Project maps a world point to pixel coordinates and camera depth.
// ok is false for points at or behind the eye plane. As with Ray, loops
// projecting many points should go through one Camera.Frame.
func (c Camera) Project(p mesh.Vec3, w, h int) (sx, sy, depth float64, ok bool) {
	f := c.Frame(w, h)
	return f.Project(p)
}

// Eval interpolates the table at t (clamped to [0, 1]), the evaluation
// the volume marcher inlines. NaN maps to the t = 0 node, so the result
// stays finite.
func (l *ColorLUT) Eval(t float64) Color {
	x := t * l.N
	if !(x > 0) { // catches t <= 0 and NaN
		return l.Nodes[0]
	}
	if x >= l.N {
		return l.Nodes[len(l.Nodes)-1]
	}
	i := int(x)
	u := x - float64(i)
	a, b := l.Nodes[i], l.Nodes[i+1]
	return Color{
		a[0] + u*(b[0]-a[0]),
		a[1] + u*(b[1]-a[1]),
		a[2] + u*(b[2]-a[2]),
		a[3] + u*(b[3]-a[3]),
	}
}

// Eval returns the color and opacity for scalar v through the tables,
// matching TransferFunction.Eval to floating-point rounding: the
// arithmetic the volume marcher inlines per sample.
func (l *TFLUT) Eval(v float64) (Color, float64) {
	t := l.TF.Norm.Norm(v)
	if !(t >= l.TF.Transparent) {
		return l.Map.Eval(t), 0
	}
	alpha := l.TF.OpacityScale * (0.02 + 0.98*t*t)
	if alpha > 1 {
		alpha = 1
	}
	return l.Map.Eval(t), alpha
}

// Len returns the number of values held.
func (l *FreeList[T]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.free)
}
