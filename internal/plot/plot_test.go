package plot

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func sampleSeries() []Series {
	return []Series{
		{Label: "Contour", X: []float64{120, 80, 40}, Y: []float64{1.0, 1.0, 1.2}},
		{Label: "Volume Rendering", X: []float64{120, 80, 40}, Y: []float64{1.0, 1.1, 1.9}},
	}
}

func TestWriteSVGWellFormed(t *testing.T) {
	var buf bytes.Buffer
	err := WriteSVG(&buf, Options{Title: "Tratio vs cap", XLabel: "cap (W)", YLabel: "Tratio"}, sampleSeries())
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "<svg ") || !strings.HasSuffix(strings.TrimSpace(out), "</svg>") {
		t.Errorf("not a complete SVG document")
	}
	if strings.Count(out, "<polyline") != 2 {
		t.Errorf("polylines = %d, want 2", strings.Count(out, "<polyline"))
	}
	for _, want := range []string{"Contour", "Volume Rendering", "Tratio vs cap", "cap (W)"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
	// 3 points per series -> 6 markers.
	if strings.Count(out, "<circle") != 6 {
		t.Errorf("markers = %d, want 6", strings.Count(out, "<circle"))
	}
}

func TestWriteSVGEscapesLabels(t *testing.T) {
	var buf bytes.Buffer
	s := []Series{{Label: "a<b & c", X: []float64{0, 1}, Y: []float64{0, 1}}}
	if err := WriteSVG(&buf, Options{Title: "x<y"}, s); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "a<b") || !strings.Contains(out, "a&lt;b &amp; c") {
		t.Error("labels not escaped")
	}
}

func TestWriteSVGDegenerate(t *testing.T) {
	var buf bytes.Buffer
	// Constant series (zero y span) must not divide by zero.
	s := []Series{{Label: "flat", X: []float64{1, 2, 3}, Y: []float64{5, 5, 5}}}
	if err := WriteSVG(&buf, Options{}, s); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "NaN") {
		t.Error("NaN leaked into the SVG")
	}
	// Empty series list still renders a frame.
	buf.Reset()
	if err := WriteSVG(&buf, Options{Title: "empty"}, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "empty") {
		t.Error("empty chart missing title")
	}
	// Absurd dimensions rejected.
	if err := WriteSVG(&buf, Options{Width: 10, Height: 10}, nil); err == nil {
		t.Error("tiny dimensions accepted")
	}
}

func TestNiceTicks(t *testing.T) {
	ticks := niceTicks(span{0, 100}, 5)
	if len(ticks) < 3 || len(ticks) > 12 {
		t.Errorf("tick count = %d: %v", len(ticks), ticks)
	}
	for i := 1; i < len(ticks); i++ {
		if ticks[i] <= ticks[i-1] {
			t.Fatalf("ticks not ascending: %v", ticks)
		}
	}
	if ticks[0] < 0 || ticks[len(ticks)-1] > 100+1e-9 {
		t.Errorf("ticks outside span: %v", ticks)
	}
	// Rounded values.
	for _, tk := range ticks {
		if tk != math.Trunc(tk/10)*10 && tk != math.Trunc(tk/20)*20 {
			// 0,20,40,... or 0,10,...; either is fine, just check they
			// are multiples of the step implied by neighbors.
			break
		}
	}
}

func TestFmtTick(t *testing.T) {
	if fmtTick(40) != "40" {
		t.Errorf("fmtTick(40) = %q", fmtTick(40))
	}
	if fmtTick(0.25) != "0.25" {
		t.Errorf("fmtTick(0.25) = %q", fmtTick(0.25))
	}
}
