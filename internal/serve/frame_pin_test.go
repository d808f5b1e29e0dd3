package serve

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"image"
	"image/draw"
	"image/png"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/harness"
)

// servedFramePins are the decoded pixels (SHA-256 of the 8-bit straight
// RGBA, row by row), the X-Energy-Joules header and the daemon's exact
// energy total after each of a sequence of /render responses:
// both algorithms, three frames of a 50-frame orbit, at 32³ with 64²
// images and at 64³ with 128² images, over hydro runs to t = 0.05.
// Pinned from the frame path as it rendered every pixel into a fresh
// framebuffer, so a change to how a frame is rendered or encoded must
// keep both the pixels and the price of every response.
var servedFramePins = map[string][3]string{
	"/render?alg=volren&size=32&width=64&height=64&frame=0":      {"ded1d1e8439dc8d1e9f7faa5727159f9e163f84d5f048e533bde7631bc60071b", "0.004", "0.0035783651982461088"},
	"/render?alg=volren&size=32&width=64&height=64&frame=17":     {"3903e90f44ad864bcd65177e8cedd65c99ff3b03902c6c3cafb703485f013cdb", "0.004", "0.0071651188419520895"},
	"/render?alg=volren&size=32&width=64&height=64&frame=38":     {"e2ead7df86e6897b073003d7720a6fe4cb7c8e34f25c4a18261b85f0f472d27d", "0.004", "0.010745274153894726"},
	"/render?alg=raytrace&size=32&width=64&height=64&frame=0":    {"150680336f673f7190bcfc065ee4f90dc7481b6a88db54ece50c75236ff2ad9d", "0.003", "0.013511184329943197"},
	"/render?alg=raytrace&size=32&width=64&height=64&frame=17":   {"eb1d99b694a020720ddb304a5e3d5b32b8b9b16979ebe3020aa4bf48ad778796", "0.003", "0.016342726136567072"},
	"/render?alg=raytrace&size=32&width=64&height=64&frame=38":   {"38c6185459268a8d494c513d5cfc926a80b35017f21392ae99fff3f0d49d05dc", "0.003", "0.019092716089227423"},
	"/render?alg=volren&size=64&width=128&height=128&frame=0":    {"bc20756edf51fcc962d29fd09f83cf70275dc1a7b8fd0993abd4e23dc14393fb", "0.014", "0.033228376893368952"},
	"/render?alg=volren&size=64&width=128&height=128&frame=17":   {"fe6823c6e12d1306533fcf708be4e9f21349bf7fb870bb03168575619997eac9", "0.014", "0.0474340108341317"},
	"/render?alg=volren&size=64&width=128&height=128&frame=38":   {"a78ef0bb1258307a518b920d46f419ca08b7a40398be5fb44b656e33952fa495", "0.014", "0.061458870204623782"},
	"/render?alg=raytrace&size=64&width=128&height=128&frame=0":  {"f66f4e3b7dd78e8f800994f5c3ecfbdb839f8da324ffb2c9ee1f356ac9a7eb94", "0.005", "0.066831029724004079"},
	"/render?alg=raytrace&size=64&width=128&height=128&frame=17": {"0eb3ced829586f25dcaad63ccb236178f86d022579e201a269b032a6f5d4e201", "0.006", "0.072534849688722092"},
	"/render?alg=raytrace&size=64&width=128&height=128&frame=38": {"b0aee39e99a76b68dd7430645ca145652faefbb5c4ceb7fcc0660948c74a3c93", "0.005", "0.077878080022657767"},
}

// decodedDigest decodes a PNG and hashes its pixels as 8-bit straight
// RGBA, so the pin is about pixels, not the file's encoding.
func decodedDigest(t *testing.T, body []byte) string {
	t.Helper()
	im, err := png.Decode(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	nrgba := image.NewNRGBA(im.Bounds())
	draw.Draw(nrgba, nrgba.Bounds(), im, im.Bounds().Min, draw.Src)
	return fmt.Sprintf("%x", sha256.Sum256(nrgba.Pix))
}

func TestServedFramesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 32³ and 64³ hydro runs")
	}
	s := testServer(t, Options{Config: &harness.Config{
		Sizes: []int{32, 64}, PhaseSize: 32, MaxSimSize: 64, SimTime: 0.05,
		Images: 50, ImageSize: 64, Particles: 64, ParticleSteps: 100,
	}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, size := range []struct{ grid, image int }{{32, 64}, {64, 128}} {
		for _, alg := range []string{"volren", "raytrace"} {
			for _, frame := range []int{0, 17, 38} {
				path := fmt.Sprintf("/render?alg=%s&size=%d&width=%d&height=%d&frame=%d", alg, size.grid, size.image, size.image, frame)
				resp, body := get(t, ts, path)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s: status %d: %s", path, resp.StatusCode, body)
				}
				// The header rounds to millijoules; the running total
				// carries every bit of each frame's modeled energy.
				got := [3]string{decodedDigest(t, body), resp.Header.Get("X-Energy-Joules"), fmt.Sprintf("%.17g", s.met.energyJ.Value())}
				if want := servedFramePins[path]; got != want {
					t.Errorf("%s: got %q, pinned %q", path, got, want)
				}
			}
		}
	}
}
