package render

// ColorLUT is a piecewise-linear tabulation of a colormap over t ∈ [0, 1].
// CoolWarm itself is piecewise linear with its only breakpoint at t = 0.5,
// so a table with an even number of segments has a node exactly at the
// breakpoint and reproduces the map to floating-point rounding — no branch
// math per sample, just one indexed load pair and a lerp.
//
// The volume marcher reads the table directly and evaluates it inline:
// x := t·N; x ≤ 0 (or NaN) takes Nodes[0], x ≥ N takes Nodes[N], and
// otherwise i := int(x), u := x − i and each channel is
// Nodes[i] + u·(Nodes[i+1] − Nodes[i]).
type ColorLUT struct {
	// Nodes holds N+1 colors at t = i/N.
	Nodes []Color
	// N is the segment count.
	N float64
}

// NewColorLUT tabulates f at n+1 evenly spaced nodes (n is rounded up to
// the next even count, minimum 2, so the CoolWarm breakpoint lands on a
// node).
func NewColorLUT(f func(float64) Color, n int) *ColorLUT {
	if n < 2 {
		n = 2
	}
	if n%2 == 1 {
		n++
	}
	l := &ColorLUT{Nodes: make([]Color, n+1), N: float64(n)}
	for i := 0; i <= n; i++ {
		l.Nodes[i] = f(float64(i) / float64(n))
	}
	return l
}

// CoolWarmLUT tabulates the CoolWarm map (see NewColorLUT for sizing).
func CoolWarmLUT(n int) *ColorLUT {
	return NewColorLUT(CoolWarm, n)
}

// TFLUT is a transfer function with its colormap tabulated: what the
// volume marcher reads, once per frame, to evaluate the transfer function
// inline in its sample loop. The color channels come from the ColorLUT
// (exact for the piecewise-linear CoolWarm); the opacity ramp is quadratic
// in t, so it is evaluated in closed form — two multiply-adds — rather
// than tabulated, keeping the fast path within floating-point rounding of
// TransferFunction.Eval instead of within table-interpolation error.
type TFLUT struct {
	TF  TransferFunction
	Map *ColorLUT
}

// tfLUTSize is sized so two adjacent Color nodes (64 B) plus the index
// math stay resident in L1 across a frame while the table remains exact
// for CoolWarm (any even size is exact; 512 segments also keeps other
// piecewise-smooth maps below ~1e-6 interpolation error).
const tfLUTSize = 512

// LUT tabulates the transfer function's colormap for the render hot path.
func (tf TransferFunction) LUT() *TFLUT {
	return &TFLUT{TF: tf, Map: CoolWarmLUT(tfLUTSize)}
}

// MaxOpacity returns a conservative upper bound on the opacity the
// transfer function can assign to any scalar in [lo, hi]. The bound backs
// macrocell empty-space skipping: a zero bound proves every sample in the
// cell is fully transparent, so the marcher may skip it without changing
// the image. The bound is slackened by a relative epsilon so values within
// floating-point noise of the transparency threshold never count as
// skippable.
func (tf TransferFunction) MaxOpacity(lo, hi float64) float64 {
	if hi < lo {
		lo, hi = hi, lo
	}
	t := tf.Norm.Norm(hi)
	// Slack: a sample reconstructed at a macrocell face can exceed the
	// cell's tabulated max by a few ulps; nudge the bound upward so the
	// transparency test stays conservative.
	t += 1e-9
	if t < tf.Transparent {
		return 0
	}
	if t > 1 {
		t = 1
	}
	alpha := tf.OpacityScale * (0.02 + 0.98*t*t)
	if alpha > 1 {
		alpha = 1
	}
	return alpha
}
