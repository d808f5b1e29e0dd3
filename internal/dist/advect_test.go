package dist

import (
	"errors"
	"math"
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
			if res.Rounds < 1 || res.Profile.IsZero() {
				t.Fatalf("%s ranks=%d: rounds=%d profile zero=%v", mode, ranks, res.Rounds, res.Profile.IsZero())
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
