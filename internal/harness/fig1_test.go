package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"image/png"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/mesh"
	"repro/internal/par"
)

func TestRenderFig1WritesAllEightImages(t *testing.T) {
	c := tinyConfig()
	var heartbeat bytes.Buffer
	c.Heartbeat = &heartbeat
	dir := t.TempDir()
	paths, err := c.RenderFig1(16, 32, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 8 {
		t.Fatalf("wrote %d images, want 8", len(paths))
	}
	for _, p := range paths {
		info, err := os.Stat(p)
		if err != nil {
			t.Fatalf("missing %s: %v", p, err)
		}
		if info.Size() < 100 {
			t.Errorf("%s suspiciously small (%d bytes)", p, info.Size())
		}
	}
	// Expected file names.
	for _, want := range []string{"contour.png", "volume_rendering.png", "particle_advection.png"} {
		if _, err := os.Stat(filepath.Join(dir, want)); err != nil {
			t.Errorf("expected %s: %v", want, err)
		}
	}
	// One heartbeat line for the whole figure, outside the cell count.
	if !regexp.MustCompile(`^fig1 \(8 panels, 16\^3, 32x32\) done in \d+\.\d\ds\n$`).Match(heartbeat.Bytes()) {
		t.Errorf("heartbeat = %q, want one fig1 line", heartbeat.String())
	}
}

// The SHA-256 of each Figure 1 PNG, in Fig1Names order, from tinyConfig's
// data set at two sizes and resolutions. sha256 is the file as written,
// recorded when WritePNG became a direct Up-filtered BestSpeed writer (no
// pixel moved, as defaultLevel shows). defaultLevel is the file png.Encode
// writes at the default compression level for the same pixels, recorded
// at the parent of the change that renders the panels concurrently
// (commit 687df6f): each panel decodes and re-encodes to it, so the
// re-recordings changed the encoding and no pixel.
var fig1Recording = []struct {
	size, res    int
	sha256       [8]string
	defaultLevel [8]string
}{
	{16, 32, [8]string{
		"8ffd818c5d6060fa46bdcf6e39f36a2e9c626cd1e2a36091bf71331b2c0fd8ab",
		"f1cd48c3ef43b381ccc207004e3ba3ac89a497d2ef2ef699919166f4afec1e54",
		"6493e3b93951f3c596d1a26ed074162024935f208a8b25eb04cec35b6da0f3d4",
		"44a1437cdac360a6db4fd1ca6454007ac2e95d4f51ed19a91bb2a113b9930bea",
		"bf99e1890e490d1e28f7d15ae9e129f22a56568942d58b9b865cec50224fac68",
		"e36cfb1b93776ab54b964cf149d747499ec78e0e18356553bae63a3836198e9c",
		"723d449822e6e01da973c1f4a4919382f8863bc8bbbd6e0a419750ac75bf77b1",
		"1f34852454f082f0bd84f5fea8f236c2e561c513058cf1111bec88275c3e6eb2",
	}, [8]string{
		"ebcd1af25f673e4d4910e7c346b06797fcf8ed5aa2e48cc5186cfc592a62231c",
		"009da19ab2e44c4efa5fbb69d1c18a04a8f3e889e82ba9c28c2b8cfafc5488a0",
		"0168752f05a351fe17e7d9a26c841f70258d46a8b47f3276df0f9636813e85ef",
		"991fb3658142ff09f20e1559622692e47e20f28eac6fab3dab3865e0f1d65332",
		"e0dae77dd57f3238c57442f4c358408f4bbe349f0d6d634c19be6e4fdd42ea83",
		"8b6e5344973eb5e0ebb5230af3541cb3037bd567ee7a4b64db29a87ef16656f0",
		"bf8785e261b6414aceb09cd5d7883d787c3c56a44dcccfde2bbd5d54bf78c517",
		"b7fb4119280e59b885454d6c298c9c107bebefc60723a942728f0ede77711c41",
	}},
	{32, 128, [8]string{
		"2eb965cd9d47ec458ad636140d4f9c818f0ac803e6e68c155c7a5dba1cefdbcf",
		"2bafd7257d10c0898c7848ef38d6c8bb5c13f0cff7235b20c3e30f3b8bca2e00",
		"fb46e0eeeab4e5264eca265afdf5b6c3e344b4b67c9044463ff79cf6286807ec",
		"55781a637fca8dbb6835652770914b66bbfbbc73a10271e6d46f788aa530c1d9",
		"344688f11fabbcc48de93dc0ab568ac85664484e5cc13a4ea8307df554790993",
		"c00873dea90618d286f21b11848b19129a8fce8fadac77a021da6f756f5a43f4",
		"1b6f69161a63cb9575a7851e998de54bf97e8b0b505a7c163243abb0e56e729a",
		"801a89a1ec4317a441140189ebda0c7eec37d7bb08c2e3cdb911cd0ab2b58278",
	}, [8]string{
		"29e13642818583ea247b2f05415586ff3dc4bb807d653167c9aee50f20a784a9",
		"712e660adb31c20b6a514934146a19a34f14157b6980fe9dcfa0f2d71907148e",
		"95ab8882316a03c66f7c91d344309f4658c1d87a0a983df3f28434b9bd137f98",
		"22d8cd3e965440bee5f838b8ad8f9abc4a3e066630ec60d7d8a2f8a6710a093c",
		"651687fcd6058f32216d1db2c1338a9d6eee8ae2fd46c23fac929428a0cd43a8",
		"f8b4f30248c486dd61b4ef42afc7edcab289fcb99b5eeb93e9b6b01ca0f1371d",
		"5c8cac3e549ed9262d4109724cc2ba9ad3e2c86db994c26bc389033cf2477e04",
		"536fc223a6c1d0b0c5829bbd9a22eb256f91b5aa3b1798e4ac367d4fe1cce95d",
	}},
}

// Figure 1 is byte-identical to the recording however many panels are in
// flight: the pool sizes let one, two and four render at once.
func TestRenderFig1MatchesParentRecording(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		c := tinyConfig()
		c.Pool = par.NewPool(workers)
		for _, rec := range fig1Recording {
			if raceDetector && rec.size > 16 {
				continue // TestRenderFig1ReadsGridOnly is the -race case
			}
			requireFig1Recording(t, c, rec.size, rec.res, rec.sha256, rec.defaultLevel)
		}
		c.Pool.Close()
	}
}

// The panels share one grid and only read it. This one carries the hydro
// data set's cell fields but no energy point field yet, so under -race a
// panel that recentered the field itself, while another reads the grid,
// fails here. Recentered up front, it is the hydro's own point field, so
// the PNGs are the recorded ones.
func TestRenderFig1ReadsGridOnly(t *testing.T) {
	hydro, err := tinyConfig().Dataset(16)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		g, err := mesh.NewCubeGrid(16)
		if err != nil {
			t.Fatal(err)
		}
		copy(g.AddCellField("energy"), hydro.CellField("energy"))
		copy(g.AddPointVector("velocity"), hydro.PointVector("velocity"))
		c := tinyConfig()
		c.Pool = par.NewPool(workers)
		if err := c.Preload(16, g); err != nil {
			t.Fatal(err)
		}
		requireFig1Recording(t, c, 16, 32, fig1Recording[0].sha256, fig1Recording[0].defaultLevel)
		c.Pool.Close()
	}
}

// requireFig1Recording renders Figure 1 at size and res and checks each
// PNG against its recorded SHA-256, and its pixels, re-encoded at the
// default compression level, against the default-level recording.
func requireFig1Recording(t *testing.T, c *Config, size, res int, want, defaultLevel [8]string) {
	t.Helper()
	paths, err := c.RenderFig1(size, res, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range paths {
		png, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(png); hex.EncodeToString(sum[:]) != want[i] {
			t.Errorf("%d workers, %d^3 at %dx%d: %s differs from the recording (%x)", c.Pool.Workers(), size, res, res, filepath.Base(p), sum)
		}
		if sum := defaultLevelSHA256(t, png); sum != defaultLevel[i] {
			t.Errorf("%d workers, %d^3 at %dx%d: %s re-encoded at the default level differs from its recording", c.Pool.Workers(), size, res, res, filepath.Base(p))
		}
	}
}

func TestFileSlug(t *testing.T) {
	cases := map[string]string{
		"Contour":           "contour",
		"Spherical Clip":    "spherical_clip",
		"Volume Rendering":  "volume_rendering",
		"already_lowercase": "already_lowercase",
	}
	for in, want := range cases {
		if got := fileSlug(in); got != want {
			t.Errorf("fileSlug(%q) = %q, want %q", in, got, want)
		}
	}
}

// defaultLevelSHA256 decodes a PNG and returns the SHA-256 of the file
// png.Encode writes for its pixels at the default compression level.
func defaultLevelSHA256(t *testing.T, file []byte) string {
	t.Helper()
	im, err := png.Decode(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := png.Encode(&buf, im); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}
