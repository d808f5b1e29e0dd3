// Package render provides the image-generation substrate shared by the
// ray-tracing and volume-rendering workloads and by the Fig. 1 rendering
// harness: float RGBA images with PNG export, orbiting perspective
// cameras (the paper renders 50 images per cycle from camera positions
// around the data set), a cool-to-warm scalar color map, and a simple
// depth-buffered line rasterizer used to draw streamlines.
package render

import (
	"image"
	"image/color"
	"image/png"
	"io"
	"math"

	"repro/internal/mesh"
)

// Color is an RGBA color with float64 channels in [0,1].
type Color [4]float64

// Scale multiplies the RGB channels by s, leaving alpha.
func (c Color) Scale(s float64) Color {
	return Color{c[0] * s, c[1] * s, c[2] * s, c[3]}
}

// Add sums two colors channel-wise (including alpha).
func (c Color) Add(o Color) Color {
	return Color{c[0] + o[0], c[1] + o[1], c[2] + o[2], c[3] + o[3]}
}

// Image is a float RGBA framebuffer with an optional depth buffer.
type Image struct {
	W, H  int
	Pix   []Color
	Depth []float64
}

// NewImage allocates a w×h image cleared to transparent black with an
// infinite depth buffer.
func NewImage(w, h int) *Image {
	im := &Image{W: w, H: h, Pix: make([]Color, w*h), Depth: make([]float64, w*h)}
	for i := range im.Depth {
		im.Depth[i] = math.Inf(1)
	}
	return im
}

// Reset restores the image to its freshly-allocated state — transparent
// black with an infinite depth buffer — so render loops can reuse one
// framebuffer across the 50-image orbit instead of allocating per frame.
func (im *Image) Reset() {
	clear(im.Pix)
	for i := range im.Depth {
		im.Depth[i] = math.Inf(1)
	}
}

// Fill sets every pixel to c (depth untouched).
func (im *Image) Fill(c Color) {
	for i := range im.Pix {
		im.Pix[i] = c
	}
}

// Set writes pixel (x, y); out-of-range coordinates are ignored.
func (im *Image) Set(x, y int, c Color) {
	if x < 0 || y < 0 || x >= im.W || y >= im.H {
		return
	}
	im.Pix[y*im.W+x] = c
}

// At reads pixel (x, y); out-of-range coordinates return zero.
func (im *Image) At(x, y int) Color {
	if x < 0 || y < 0 || x >= im.W || y >= im.H {
		return Color{}
	}
	return im.Pix[y*im.W+x]
}

// SetIfCloser writes pixel (x,y) only if depth is closer than the stored
// depth, and reports whether it wrote.
func (im *Image) SetIfCloser(x, y int, depth float64, c Color) bool {
	if x < 0 || y < 0 || x >= im.W || y >= im.H {
		return false
	}
	i := y*im.W + x
	if depth >= im.Depth[i] {
		return false
	}
	im.Depth[i] = depth
	im.Pix[i] = c
	return true
}

func to8(v float64) uint8 {
	if v <= 0 {
		return 0
	}
	if v >= 1 {
		return 255
	}
	return uint8(v*255 + 0.5)
}

// WritePNG encodes the image as PNG.
func (im *Image) WritePNG(w io.Writer) error {
	out := image.NewRGBA(image.Rect(0, 0, im.W, im.H))
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			c := im.Pix[y*im.W+x]
			out.SetRGBA(x, y, color.RGBA{to8(c[0]), to8(c[1]), to8(c[2]), to8(c[3])})
		}
	}
	return png.Encode(w, out)
}

// MeanLuminance returns the average luminance of the image — used by the
// tests to check that a rendering produced something visible.
func (im *Image) MeanLuminance() float64 {
	if len(im.Pix) == 0 {
		return 0
	}
	sum := 0.0
	for _, c := range im.Pix {
		sum += 0.2126*c[0] + 0.7152*c[1] + 0.0722*c[2]
	}
	return sum / float64(len(im.Pix))
}

// Camera is a perspective pinhole camera.
type Camera struct {
	Eye, Look, Up Vec3ish
	FOVDeg        float64
}

// Vec3ish aliases mesh.Vec3 to keep signatures short.
type Vec3ish = mesh.Vec3

// OrbitCamera places a camera on a circular orbit around the center of
// bounds: azimuth in radians around the z axis of the scene (y-up view),
// at a mild elevation, at distFactor times the bounds diagonal. This is
// how the study generates its 50 camera positions per cycle.
func OrbitCamera(b mesh.Bounds, azimuth, elevation, distFactor float64) Camera {
	center := b.Center()
	d := b.Diagonal() * distFactor
	if d == 0 {
		d = 1
	}
	eye := mesh.Vec3{
		center[0] + d*math.Cos(elevation)*math.Cos(azimuth),
		center[1] + d*math.Cos(elevation)*math.Sin(azimuth),
		center[2] + d*math.Sin(elevation),
	}
	return Camera{Eye: eye, Look: center, Up: mesh.Vec3{0, 0, 1}, FOVDeg: 45}
}

// OrbitView is the study orbit: the camera of frame i of an images-long
// image database around b, with its azimuth in radians. Every producer of
// an orbit frame — the two image filters, the cinema verb, the daemon's
// /render and /cinema — takes its view from here, so they agree by
// construction.
func OrbitView(b mesh.Bounds, frame, images int) (Camera, float64) {
	az := 2 * math.Pi * float64(frame) / float64(images)
	return OrbitCamera(b, az, 0.35, 2.0), az
}

// basis returns the orthonormal camera frame.
func (c Camera) basis() (forward, right, up mesh.Vec3) {
	forward = c.Look.Sub(c.Eye).Normalize()
	right = forward.Cross(c.Up).Normalize()
	if right.Norm() == 0 {
		// Up was parallel to forward; pick another up.
		right = forward.Cross(mesh.Vec3{0, 1, 0}).Normalize()
	}
	up = right.Cross(forward)
	return
}

// Ray returns the world-space ray through pixel (px, py) of a w×h image
// (pixel centers). Loops generating many rays should build one
// Camera.Frame and call Frame.Ray instead: this convenience form rebuilds
// the basis and re-evaluates math.Tan on every call.
func (c Camera) Ray(px, py, w, h int) (orig, dir mesh.Vec3) {
	f := c.Frame(w, h)
	return f.Ray(px, py)
}

// Project maps a world point to pixel coordinates and camera depth.
// ok is false for points at or behind the eye plane. As with Ray, loops
// projecting many points should go through one Camera.Frame.
func (c Camera) Project(p mesh.Vec3, w, h int) (sx, sy, depth float64, ok bool) {
	f := c.Frame(w, h)
	return f.Project(p)
}

// DrawLineFrame rasterizes a depth-tested line between world points a and
// b with colors ca and cb interpolated along it. Both endpoints project
// through fr, which callers build once per image and share across every
// segment of it (the streamline renderer).
func (im *Image) DrawLineFrame(fr *Frame, a, b mesh.Vec3, ca, cb Color) {
	ax, ay, az, okA := fr.Project(a)
	bx, by, bz, okB := fr.Project(b)
	if !okA || !okB {
		return
	}
	steps := int(math.Max(math.Abs(bx-ax), math.Abs(by-ay))) + 1
	for s := 0; s <= steps; s++ {
		t := float64(s) / float64(steps)
		x := ax + t*(bx-ax)
		y := ay + t*(by-ay)
		z := az + t*(bz-az)
		col := Color{
			ca[0] + t*(cb[0]-ca[0]),
			ca[1] + t*(cb[1]-ca[1]),
			ca[2] + t*(cb[2]-ca[2]),
			1,
		}
		im.SetIfCloser(int(x), int(y), z, col)
	}
}

// CoolWarm maps t in [0,1] to the diverging cool-to-warm color map used
// throughout scientific visualization (blue → white → red).
func CoolWarm(t float64) Color {
	if math.IsNaN(t) {
		return Color{0, 0, 0, 1}
	}
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	// Piecewise-linear approximation of Moreland's cool-warm map.
	cool := Color{0.23, 0.30, 0.75, 1}
	white := Color{0.86, 0.86, 0.86, 1}
	warm := Color{0.71, 0.016, 0.15, 1}
	if t < 0.5 {
		u := t * 2
		return Color{
			cool[0] + u*(white[0]-cool[0]),
			cool[1] + u*(white[1]-cool[1]),
			cool[2] + u*(white[2]-cool[2]),
			1,
		}
	}
	u := (t - 0.5) * 2
	return Color{
		white[0] + u*(warm[0]-white[0]),
		white[1] + u*(warm[1]-white[1]),
		white[2] + u*(warm[2]-white[2]),
		1,
	}
}

// Normalizer maps a scalar range to [0,1] for color mapping.
type Normalizer struct{ Lo, Hi float64 }

// Norm returns the normalized position of v in the range (clamped).
func (n Normalizer) Norm(v float64) float64 {
	if n.Hi <= n.Lo {
		return 0.5
	}
	t := (v - n.Lo) / (n.Hi - n.Lo)
	if t < 0 {
		return 0
	}
	if t > 1 {
		return 1
	}
	return t
}

// TransferFunction maps a normalized scalar to color and opacity for
// volume rendering.
type TransferFunction struct {
	Norm Normalizer
	// OpacityScale is the opacity per unit sample at full intensity.
	OpacityScale float64
	// Transparent is a normalized-scalar threshold below which the
	// opacity is exactly zero: the classic transfer-function design that
	// hides the quiescent background and creates the empty space the
	// macrocell marcher skips. The zero value keeps every sample visible
	// (the pre-existing behavior).
	Transparent float64
}

// Eval returns the premultiplied color and opacity for scalar v.
func (tf TransferFunction) Eval(v float64) (Color, float64) {
	t := tf.Norm.Norm(v)
	c := CoolWarm(t)
	if t < tf.Transparent {
		return c, 0
	}
	// Opacity ramps with the normalized scalar so the energetic region
	// dominates the image.
	alpha := tf.OpacityScale * (0.02 + 0.98*t*t)
	if alpha > 1 {
		alpha = 1
	}
	return c, alpha
}
