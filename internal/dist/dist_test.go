package dist

import (
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/mesh"
	"repro/internal/ops"
	"repro/internal/par"
	"repro/internal/render"
	"repro/internal/viz"
	"repro/internal/viz/volren"
)

func TestCommPointToPoint(t *testing.T) {
	comm, err := NewComm(3)
	if err != nil {
		t.Fatal(err)
	}
	err = comm.Run(func(ep *Endpoint) error {
		next := (ep.Rank() + 1) % ep.Size()
		prev := (ep.Rank() + ep.Size() - 1) % ep.Size()
		if err := ep.Send(next, 7, []float64{float64(ep.Rank())}); err != nil {
			return err
		}
		got, err := ep.Recv(prev, 7)
		if err != nil {
			return err
		}
		if int(got[0]) != prev {
			t.Errorf("rank %d received %v from %d", ep.Rank(), got, prev)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewComm(0); err == nil {
		t.Error("zero-rank fabric accepted")
	}
}

func TestCommSendCopies(t *testing.T) {
	comm, _ := NewComm(2)
	err := comm.Run(func(ep *Endpoint) error {
		if ep.Rank() == 0 {
			data := []float64{1, 2, 3}
			if err := ep.Send(1, 0, data); err != nil {
				return err
			}
			data[0] = 99 // mutation after send must not leak
			return nil
		}
		got, err := ep.Recv(0, 0)
		if err != nil {
			return err
		}
		if got[0] != 1 {
			t.Errorf("send aliased caller memory: %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCommGatherAndBarrier(t *testing.T) {
	comm, _ := NewComm(4)
	var after atomic.Int32
	err := comm.Run(func(ep *Endpoint) error {
		g, err := ep.Gather(0, 3, []float64{float64(ep.Rank() * 10)})
		if err != nil {
			return err
		}
		if ep.Rank() == 0 {
			for r, d := range g {
				if int(d[0]) != r*10 {
					t.Errorf("gather[%d] = %v", r, d)
				}
			}
		} else if g != nil {
			t.Errorf("non-root rank %d got gather data", ep.Rank())
		}
		if err := ep.Barrier(4); err != nil {
			return err
		}
		after.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if after.Load() != 4 {
		t.Errorf("barrier completions = %d", after.Load())
	}
}

func TestCommTagMismatch(t *testing.T) {
	comm, _ := NewComm(2)
	err := comm.Run(func(ep *Endpoint) error {
		if ep.Rank() == 0 {
			return ep.Send(1, 5, nil)
		}
		_, err := ep.Recv(0, 6)
		if err == nil {
			t.Error("tag mismatch accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// energyGrid is a 16^3 grid with a smooth scalar field.
func energyGrid(t testing.TB) *mesh.UniformGrid {
	t.Helper()
	g, err := mesh.NewCubeGrid(16)
	if err != nil {
		t.Fatal(err)
	}
	f := g.AddPointField("energy")
	c := mesh.Vec3{0.5, 0.5, 0.5}
	for id := 0; id < g.NumPoints(); id++ {
		d := g.PointPosition(id).Sub(c).Norm()
		f[id] = math.Exp(-8 * d * d)
	}
	return g
}

func imageDiff(a, b *render.Image) (mean float64, worst float64) {
	n := 0
	for i := range a.Pix {
		for c := 0; c < 3; c++ {
			d := math.Abs(a.Pix[i][c] - b.Pix[i][c])
			mean += d
			if d > worst {
				worst = d
			}
			n++
		}
	}
	return mean / float64(n), worst
}

func TestDistributedVolumeRenderMatchesSerial(t *testing.T) {
	g := energyGrid(t)
	pool := par.NewPool(2)
	cam := render.OrbitCamera(g.Bounds(), 0.9, 0.35, 2.0)
	const w, h = 40, 40

	pf := g.PointField("energy")
	lo, hi := mesh.FieldRange(pf)
	tf := render.TransferFunction{Norm: render.Normalizer{Lo: lo, Hi: hi}, OpacityScale: 0.25}
	exSerial := viz.NewExec(pool)
	serial := volren.NewRenderer(g, pf, tf, exSerial).RenderImageInto(nil, cam, w, h, exSerial)

	for _, ranks := range []int{1, 2, 4} {
		got, results, err := VolumeRender(energyGrid(t), "energy", ranks, cam, w, h, pool)
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		if len(results) != ranks {
			t.Fatalf("results = %d", len(results))
		}
		// Segment sampling restarts at slab boundaries, so the match is
		// approximate but must stay visually identical.
		mean, _ := imageDiff(serial, got)
		if mean > 0.02 {
			t.Errorf("ranks=%d: composite mean diff %.4f too large", ranks, mean)
		}
		for _, r := range results {
			if r.Profile == (ops.Profile{}) {
				t.Errorf("ranks=%d: rank %d recorded no work", ranks, r.Rank)
			}
		}
	}
}

func TestDistributedWorkImbalanceVisible(t *testing.T) {
	// A field concentrated in low z: low-z ranks do more contour-like
	// sampling work... here visible as unequal ray-tracing geometry work.
	g, err := mesh.NewCubeGrid(16)
	if err != nil {
		t.Fatal(err)
	}
	f := g.AddPointField("energy")
	for id := 0; id < g.NumPoints(); id++ {
		p := g.PointPosition(id)
		f[id] = math.Exp(-20 * p[2]) // all the structure near z=0
	}
	pool := par.NewPool(2)
	cam := render.OrbitCamera(g.Bounds(), 0.3, 0.5, 2.0)
	_, results, err := VolumeRender(g, "energy", 4, cam, 32, 32, pool)
	if err != nil {
		t.Fatal(err)
	}
	// The rank owning the energetic slab samples (and records) more
	// flops than the emptiest rank.
	minF, maxF := results[0].Profile.Flops, results[0].Profile.Flops
	for _, r := range results {
		if r.Profile.Flops < minF {
			minF = r.Profile.Flops
		}
		if r.Profile.Flops > maxF {
			maxF = r.Profile.Flops
		}
	}
	if maxF == minF {
		t.Error("no per-rank work imbalance despite a skewed field")
	}
}
