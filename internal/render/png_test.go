package render

import (
	"bytes"
	"encoding/binary"
	"image"
	"image/color"
	"image/png"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// encodePNG returns WritePNG's file for im.
func encodePNG(t *testing.T, im *Image) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := im.WritePNG(&buf); err != nil {
		t.Fatalf("WritePNG: %v", err)
	}
	return buf.Bytes()
}

// defaultLevelEncode writes what WritePNG stores — to8 of every channel —
// through png.Encode at the default compression level.
func defaultLevelEncode(t *testing.T, im *Image) []byte {
	t.Helper()
	out := image.NewNRGBA(image.Rect(0, 0, im.W, im.H))
	for i, c := range im.Pix {
		out.SetNRGBA(i%im.W, i/im.W, color.NRGBA{to8(c[0]), to8(c[1]), to8(c[2]), to8(c[3])})
	}
	var buf bytes.Buffer
	if err := png.Encode(&buf, out); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// requireDecodesToTo8 decodes file and checks every pixel against to8 of
// every channel of im.
func requireDecodesToTo8(t *testing.T, im *Image, file []byte) {
	t.Helper()
	dec, err := png.Decode(bytes.NewReader(file))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if b := dec.Bounds(); b.Dx() != im.W || b.Dy() != im.H {
		t.Fatalf("decoded %v, want %dx%d", b, im.W, im.H)
	}
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			c := im.Pix[y*im.W+x]
			want := color.NRGBA{to8(c[0]), to8(c[1]), to8(c[2]), to8(c[3])}
			if got := color.NRGBAModel.Convert(dec.At(x, y)).(color.NRGBA); got != want {
				t.Fatalf("pixel (%d,%d) %v decodes to %v, want %v", x, y, c, got, want)
			}
		}
	}
}

// requireRoundTrip checks that WritePNG's file (png.BestSpeed) and a
// default-level encode of the same image both decode to to8 of every
// channel, and so to the same pixels.
func requireRoundTrip(t *testing.T, im *Image) {
	t.Helper()
	requireDecodesToTo8(t, im, encodePNG(t, im))
	requireDecodesToTo8(t, im, defaultLevelEncode(t, im))
}

// testImages covers what a float channel can hold: values below 0 and
// above 1, NaN and infinities, alpha below 1 (zero included) and opaque
// frames.
func testImages() map[string]*Image {
	out := map[string]*Image{}
	ramp := NewImage(37, 23)
	for i := range ramp.Pix {
		f := float64(i) / float64(len(ramp.Pix)-1)
		ramp.Pix[i] = Color{f, 1 - f, 0.5 * f, 1}
	}
	out["opaque-ramp"] = ramp
	wild := NewImage(16, 9)
	vals := []float64{-1, -0.0, 0, 1e-300, 0.0019, 0.002, 0.5, 0.99, 1, 1.5, math.Inf(1), math.Inf(-1), math.NaN()}
	for i := range wild.Pix {
		wild.Pix[i] = Color{vals[i%len(vals)], vals[(i/3)%len(vals)], vals[(i*7)%len(vals)], 1}
	}
	out["out-of-range-opaque"] = wild
	trans := NewImage(16, 9)
	for i := range trans.Pix {
		trans.Pix[i] = Color{vals[i%len(vals)], vals[(i/3)%len(vals)], vals[(i*7)%len(vals)], vals[(i*5)%len(vals)]}
	}
	out["alpha-below-one"] = trans
	return out
}

func TestWritePNGRoundTrip(t *testing.T) {
	for name, im := range testImages() {
		t.Run(name, func(t *testing.T) { requireRoundTrip(t, im) })
	}
}

// An opaque image is stored as 8-bit RGB, the form a frame rendered over
// a background takes; the translucent one keeps its alpha channel.
func TestWritePNGColorType(t *testing.T) {
	for name, want := range map[string]byte{"opaque-ramp": 2, "alpha-below-one": 6} {
		// The IHDR colour type byte: signature (8), chunk length and type
		// (8), width and height (8), bit depth (1).
		if got := encodePNG(t, testImages()[name])[25]; got != want {
			t.Errorf("%s: colour type %d, want %d", name, got, want)
		}
	}
}

// The writer's state free list serves the daemon's handlers and cinema's
// async encoders at once: concurrent encodes of different images each
// write exactly the file a serial encode writes, and the list stays
// within its bound.
func TestWritePNGConcurrentMatchesSerial(t *testing.T) {
	var ims []*Image
	for _, im := range testImages() {
		ims = append(ims, im)
	}
	for i := 0; i < 5; i++ {
		im := NewImage(64+i, 48)
		for p := range im.Pix {
			im.Pix[p] = CoolWarm(float64((p*(i+3))%257) / 256)
		}
		ims = append(ims, im)
	}
	serial := make([][]byte, len(ims))
	for i, im := range ims {
		serial[i] = encodePNG(t, im)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8*len(ims))
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 10; r++ {
				i := (g + r) % len(ims)
				var buf bytes.Buffer
				if err := ims[i].WritePNG(&buf); err != nil {
					errs <- err.Error()
					return
				}
				if !bytes.Equal(buf.Bytes(), serial[i]) {
					errs <- "a concurrent encode differs from the serial one"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if n := pngStates.Len(); n > freeListKeep {
		t.Errorf("free list holds %d writer states, bound is %d", n, freeListKeep)
	}
	// A kept state does not hold on to a large image's file: noise does
	// not compress, so this one is over 1.7 MB.
	big := NewImage(768, 768)
	rng := rand.New(rand.NewSource(1))
	for p := range big.Pix {
		big.Pix[p] = Color{rng.Float64(), rng.Float64(), rng.Float64(), 1}
	}
	if file := encodePNG(t, big); len(file) <= pngKeptBytes {
		t.Fatalf("the large image's file is %d bytes, not over %d", len(file), pngKeptBytes)
	}
	for n := pngStates.Len(); n > 0; n-- {
		st := pngStates.Get()
		if st.out.Cap() > pngKeptBytes {
			t.Errorf("a kept writer state holds a %d-byte buffer, bound is %d", st.out.Cap(), pngKeptBytes)
		}
		defer pngStates.Put(st)
	}
}

// FuzzWritePNGRoundTrip decodes w×h pixels (each dimension 1..16) from
// raw float64 bits, so any channel value — NaN, ±Inf, subnormals,
// negative zero — reaches the encoder, and checks the round trip and the
// default-level comparison.
func FuzzWritePNGRoundTrip(f *testing.F) {
	seed := func(vals ...float64) []byte {
		b := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	f.Add(uint8(1), uint8(1), seed(0.2, 0.4, 0.6, 1))
	f.Add(uint8(2), uint8(1), seed(math.NaN(), -1, 2, 0.5, 0.3, math.Inf(1), 0, 0))
	f.Add(uint8(3), uint8(2), seed(1, 1, 1, 1, 0.999, 0.001, 0.5, 1))
	f.Fuzz(func(t *testing.T, w, h uint8, data []byte) {
		iw, ih := int(w%16)+1, int(h%16)+1
		im := NewImage(iw, ih)
		for i := range im.Pix {
			for c := 0; c < 4; c++ {
				if off := 8 * (4*i + c); off+8 <= len(data) {
					im.Pix[i][c] = math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
				}
			}
		}
		requireRoundTrip(t, im)
	})
}
