package dist

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/mesh"
	"repro/internal/ops"
	"repro/internal/par"
	"repro/internal/viz"
	"repro/internal/viz/advect"
)

// helixGrid builds a velocity field that rotates particles around the
// cube's vertical axis while pushing them up and down in z with a
// fast-oscillating component: as a particle orbits, x sweeps through
// several periods of sin(8πx), so the particle repeatedly reverses its
// z-motion and crosses slab boundaries in both directions — the
// migration- and ping-pong-heavy workload the distributed path must
// survive bit for bit. (The shared bench field's z-motion is nearly
// flat, which would never exercise migration.)
func helixGrid(t testing.TB, n int) *mesh.UniformGrid {
	t.Helper()
	g, err := mesh.NewCubeGrid(n)
	if err != nil {
		t.Fatal(err)
	}
	v := g.AddPointVector("velocity")
	for id := 0; id < g.NumPoints(); id++ {
		p := g.PointPosition(id)
		v[id] = mesh.Vec3{
			-(p[1] - 0.5),
			p[0] - 0.5,
			0.8 * math.Sin(8*math.Pi*p[0]),
		}
	}
	return g
}

func helixFilter(adaptive bool) *advect.Filter {
	return advect.New(advect.Options{
		NumParticles: 48,
		NumSteps:     400,
		StepLength:   0.004,
		Adaptive:     adaptive,
		Tolerance:    1e-6,
	})
}

// assertLinesEqual requires bit-identical streamline sets: points,
// speeds, and offsets.
func assertLinesEqual(t *testing.T, want, got *mesh.LineSet, label string) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: nil LineSet", label)
	}
	if len(got.Offsets) != len(want.Offsets) {
		t.Fatalf("%s: %d lines, want %d", label, len(got.Offsets)-1, len(want.Offsets)-1)
	}
	for i := range want.Offsets {
		if got.Offsets[i] != want.Offsets[i] {
			t.Fatalf("%s: offset %d = %d, want %d", label, i, got.Offsets[i], want.Offsets[i])
		}
	}
	if len(got.Points) != len(want.Points) || len(got.Scalars) != len(want.Scalars) {
		t.Fatalf("%s: %d points / %d scalars, want %d / %d",
			label, len(got.Points), len(got.Scalars), len(want.Points), len(want.Scalars))
	}
	for i := range want.Points {
		if got.Points[i] != want.Points[i] {
			t.Fatalf("%s: point %d = %v, want %v (bit-exact)", label, i, got.Points[i], want.Points[i])
		}
		if got.Scalars[i] != want.Scalars[i] {
			t.Fatalf("%s: scalar %d = %v, want %v (bit-exact)", label, i, got.Scalars[i], want.Scalars[i])
		}
	}
}

// assertProfileMatchesRun: same Advance, same Tally — the merged
// per-rank profile is the shared-memory run's, apart from the launch
// count (one per BSP round) and the working set (per block, not
// whole-field).
func assertProfileMatchesRun(t *testing.T, run, merged ops.Profile, label string) {
	t.Helper()
	run.Launches, merged.Launches = 0, 0
	run.WorkingSetBytes, merged.WorkingSetBytes = 0, 0
	if merged != run {
		t.Fatalf("%s: merged profile differs from advect.Run's:\ndist %+v\nrun  %+v", label, merged, run)
	}
}

// testDeadline returns a watchdog deadline comfortably inside the test
// binary's own deadline, so a wedged fabric aborts cleanly instead of
// timing out the run.
func testDeadline(t *testing.T) time.Duration {
	d := 30 * time.Second
	if dl, ok := t.Deadline(); ok {
		if remain := time.Until(dl) / 2; remain < d {
			d = remain
		}
	}
	return d
}

// TestAdvectGoldenRanks: dist.Advect reproduces single-rank advect.Run
// bit for bit — streamline points, speeds, and offsets — across 1, 2,
// 4, and 8 ranks, in both fixed-step RK4 and adaptive BS23 modes,
// under heavy migration. Also checks the conservation invariants of
// the per-rank stats.
func TestAdvectGoldenRanks(t *testing.T) {
	g := helixGrid(t, 16)
	pool := par.NewPool(2)
	for _, adaptive := range []bool{false, true} {
		mode := "fixed"
		if adaptive {
			mode = "adaptive"
		}
		f := helixFilter(adaptive)
		want, err := f.Run(g, viz.NewExec(pool))
		if err != nil {
			t.Fatal(err)
		}
		for _, ranks := range []int{1, 2, 4, 8} {
			res, err := Advect(g, f, ranks, AdvectOptions{Deadline: testDeadline(t)})
			if err != nil {
				t.Fatalf("%s ranks=%d: %v", mode, ranks, err)
			}
			assertLinesEqual(t, want.Lines, res.Lines, mode+" ranks="+string(rune('0'+ranks)))
			assertProfileMatchesRun(t, want.Profile, res.Profile, mode+" ranks="+string(rune('0'+ranks)))

			var seeded, out, in, retired int
			var steps uint64
			for _, s := range res.Stats {
				seeded += s.Seeded
				out += s.MigratedOut
				in += s.MigratedIn
				retired += s.Retired
				steps += s.Steps
			}
			if seeded != f.Options().NumParticles {
				t.Fatalf("%s ranks=%d: %d seeded, want %d", mode, ranks, seeded, f.Options().NumParticles)
			}
			if out != in {
				t.Fatalf("%s ranks=%d: migrated out %d != migrated in %d", mode, ranks, out, in)
			}
			if retired != seeded {
				t.Fatalf("%s ranks=%d: %d retired, want %d", mode, ranks, retired, seeded)
			}
			if res.Rounds < 1 || res.Profile == (ops.Profile{}) {
				t.Fatalf("%s ranks=%d: rounds=%d profile zero=%v", mode, ranks, res.Rounds, res.Profile == (ops.Profile{}))
			}
			if ranks == 1 && (out != 0 || in != 0) {
				t.Fatalf("single rank migrated %d/%d particles", out, in)
			}
			if ranks >= 4 && out == 0 {
				t.Fatalf("%s ranks=%d: no migration — the field is not exercising the exchange", mode, ranks)
			}
		}
	}
}

// TestAdvectPingPong: the oscillating-z field sends particles back to
// the rank they came from, and the counters see it.
func TestAdvectPingPong(t *testing.T) {
	g := helixGrid(t, 16)
	f := helixFilter(false)
	res, err := Advect(g, f, 8, AdvectOptions{Deadline: testDeadline(t)})
	if err != nil {
		t.Fatal(err)
	}
	ping := 0
	for _, s := range res.Stats {
		ping += s.PingPong
	}
	if ping == 0 {
		t.Fatal("no ping-pong migrations counted on the oscillating field")
	}
}

// TestAdvectSeedRejection: out-of-domain seeds injected through
// AdvectOptions.Seeds are rejected exactly as the shared-memory paths
// reject them — the gathered LineSet stays bit-identical to RunSeeds
// over the same list.
func TestAdvectSeedRejection(t *testing.T) {
	g := helixGrid(t, 16)
	pool := par.NewPool(2)
	seeds := []mesh.Vec3{
		{0.5, 0.5, 0.5},
		{-0.25, 0.5, 0.5},                // outside low x
		{0.5, 0.5, math.Nextafter(1, 2)}, // one ulp past the top face
		{0.25, 0.75, 0.97},
		{2, 2, 2}, // far outside
		{0.75, 0.25, 0.03},
		{0, 0, 0}, // boundary-exact corner
	}
	for _, adaptive := range []bool{false, true} {
		f := helixFilter(adaptive)
		want, err := f.RunSeeds(g, viz.NewExec(pool), seeds)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Advect(g, f, 4, AdvectOptions{Seeds: seeds, Deadline: testDeadline(t)})
		if err != nil {
			t.Fatal(err)
		}
		assertLinesEqual(t, want.Lines, res.Lines, "seed rejection")
		assertProfileMatchesRun(t, want.Profile, res.Profile, "seed rejection")
		seeded := 0
		for _, s := range res.Stats {
			seeded += s.Seeded
		}
		if seeded != 4 {
			t.Fatalf("%d live seeds accepted, want 4", seeded)
		}
	}
}

// TestAdvectFaultDelay: injected migration delays reorder nothing —
// the exchange is tagged per round and per pair — so the output stays
// bit-identical to the clean run.
func TestAdvectFaultDelay(t *testing.T) {
	g := helixGrid(t, 16)
	f := helixFilter(false)
	want, err := Advect(g, f, 4, AdvectOptions{Deadline: testDeadline(t)})
	if err != nil {
		t.Fatal(err)
	}
	plan := &FaultPlan{Delay: func(src, dst, tag, seq int) time.Duration {
		if tag >= advectTagMigrate && tag < advectTagCount && seq%3 == 0 {
			return time.Millisecond
		}
		return 0
	}}
	res, err := Advect(g, f, 4, AdvectOptions{
		Fabric:   Options{Fault: plan},
		Deadline: testDeadline(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	assertLinesEqual(t, want.Lines, res.Lines, "delayed fabric")
}

// TestAdvectFaultDrop: silently dropping migration traffic wedges the
// receiver (the fabric is non-overtaking, so no later tag can match),
// and the armed deadline converts the stall into a clean typed
// *AbortError instead of a hang.
func TestAdvectFaultDrop(t *testing.T) {
	g := helixGrid(t, 16)
	f := helixFilter(false)
	plan := &FaultPlan{Drop: func(src, dst, tag, seq int) bool {
		return src == 1 && tag >= advectTagMigrate && tag < advectTagCount
	}}
	start := time.Now()
	_, err := Advect(g, f, 4, AdvectOptions{
		Fabric:   Options{Fault: plan},
		Deadline: 2 * time.Second,
	})
	if err == nil {
		t.Fatal("dropped migration traffic produced no error")
	}
	var abort *AbortError
	if !errors.As(err, &abort) || !errors.Is(err, ErrAborted) {
		t.Fatalf("want *AbortError wrapping ErrAborted, got %T: %v", err, err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("abort took %v, deadline watchdog did not fire", elapsed)
	}
}

// TestAdvectValidation: bad configurations fail fast with typed
// errors instead of reaching the fabric.
func TestAdvectValidation(t *testing.T) {
	g := helixGrid(t, 8)
	f := helixFilter(false)
	if _, err := Advect(g, f, 0, AdvectOptions{}); err == nil {
		t.Fatal("0 ranks accepted")
	}
	if _, err := Advect(g, f, 9, AdvectOptions{}); err == nil {
		t.Fatal("more ranks than cell layers accepted")
	}
	if _, err := Advect(g, f, 2, AdvectOptions{Fabric: Options{BufferCap: -1}}); err == nil {
		t.Fatal("rendezvous fabric accepted")
	}
	missing := advect.New(advect.Options{Vector: "nope"})
	if _, err := Advect(g, missing, 2, AdvectOptions{}); err == nil {
		t.Fatal("missing vector field accepted")
	}
}

// A finite but huge |v_z| asks for more halo than the grid has layers:
// the halo is every layer, not an overflowed int, and the run still
// matches the single-rank filter.
func TestAdvectHaloHugeVelocity(t *testing.T) {
	g := helixGrid(t, 8)
	g.PointVector("velocity")[g.NumPoints()/2][2] = 1e300
	f := helixFilter(false)
	want, err := f.Run(g, viz.NewExec(par.NewPool(1)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Advect(g, f, 2, AdvectOptions{Deadline: testDeadline(t)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ghost != 8 {
		t.Errorf("ghost halo %d layers, want the grid's 8", res.Ghost)
	}
	assertLinesEqual(t, want.Lines, res.Lines, "huge v_z")
}

// TestAdvectDecodersRejectMalformed: the two decoders of messages that
// crossed the fabric — the root's decodeTrails and a rank's migration
// ingest — answer every malformed message with an error naming the
// sending rank: never a panic, never an index past the buffer. (The
// cases are the seed corpus a fuzz target would start from.)
func TestAdvectDecodersRejectMalformed(t *testing.T) {
	const nSeeds = 4
	// One well-formed rank message: two segments of particle 1, a
	// one-point segment of particle 3.
	good := []float64{3,
		1, 0, 2, 0.1, 0.2, 0.3, 1.5, 0.4, 0.5, 0.6, 2.5,
		3, 0, 1, 0.7, 0.8, 0.9, 3.5,
		1, 1, 1, 0.9, 0.9, 0.9, 4.5,
	}
	trails, err := decodeTrails([][]float64{{0}, good}, nSeeds)
	if err != nil {
		t.Fatalf("well-formed gather rejected: %v", err)
	}
	if len(trails) != 2 || len(trails[0].Segs) != 0 || len(trails[1].Segs) != 3 || len(trails[1].Pts) != 4 {
		t.Fatalf("well-formed gather decoded to %+v", trails)
	}
	if sg := trails[1].Segs[2]; sg.PID != 1 || sg.Seq != 1 || sg.Off != 3 || sg.N != 1 || trails[1].Spd[3] != 4.5 {
		t.Fatalf("third segment decoded to %+v (speed %v)", sg, trails[1].Spd[3])
	}
	lines, _ := advect.Assemble(trails, nil)
	if lines.NumLines() != 1 || lines.TotalPoints() != 3 {
		t.Fatalf("assembled %d lines / %d points, want particle 1's three points only", lines.NumLines(), lines.TotalPoints())
	}

	for _, tc := range []struct {
		name string
		msg  []float64
	}{
		{"empty message", nil},
		{"truncated header", []float64{1, 0, 0}},
		{"second header missing", []float64{2, 0, 0, 0}},
		{"point count overruns the buffer", []float64{1, 0, 0, 2, 0.1, 0.2, 0.3, 1}},
		{"huge point count", []float64{1, 0, 0, 1e18}},
		{"negative point count", []float64{2, 0, 0, -1, 1, 0, 1, 0.1, 0.2, 0.3, 1}},
		{"negative pid", []float64{1, -1, 0, 1, 0.1, 0.2, 0.3, 1}},
		{"pid >= nSeeds", []float64{1, nSeeds, 0, 1, 0.1, 0.2, 0.3, 1}},
	} {
		trails, err := decodeTrails([][]float64{{0}, {0}, tc.msg}, nSeeds)
		if err == nil || trails != nil || !strings.Contains(err.Error(), "rank 2") {
			t.Errorf("decodeTrails, %s: got (%v, %v), want an error naming rank 2", tc.name, trails, err)
		}
	}

	for _, tc := range []struct {
		name string
		msg  []float64
	}{
		{"empty message", nil},
		{"count without particles", []float64{1}},
		{"one float short", append([]float64{1}, make([]float64, advectWireFields-1)...)},
		{"one float over", append([]float64{1}, make([]float64, advectWireFields+1)...)},
		{"negative count", []float64{-1}},
		{"count far past the buffer", []float64{1e18, 0, 0}},
	} {
		var st advectRankState
		n, err := st.ingest(tc.msg, 3)
		if err == nil || n != 0 || len(st.ps) != 0 || !strings.Contains(err.Error(), "rank 3") {
			t.Errorf("ingest, %s: got (%d, %v) with %d residents, want an error naming rank 3", tc.name, n, err, len(st.ps))
		}
	}
	var st advectRankState
	if n, err := st.ingest([]float64{0}, 1); n != 0 || err != nil {
		t.Errorf("ingest of an empty batch: (%d, %v)", n, err)
	}
	one := append([]float64{1}, 0.1, 0.2, 0.3, 7, 2, 1, 5, 0.004, 0.02, 1)
	if n, err := st.ingest(one, 1); n != 1 || err != nil || st.ps[0].PID != 2 || st.ps[0].Steps != 5 || st.prev[0] != 1 {
		t.Errorf("ingest of one particle: (%d, %v), state %+v prev %v", n, err, st.ps, st.prev)
	}
}
