package dist

import (
	"math"
	"testing"

	"repro/internal/ops"
	"repro/internal/par"
	"repro/internal/sim/clover"
)

func TestDistSimMatchesSerialBitExact(t *testing.T) {
	// 12 layers over 1-4 ranks, then 16 over up to 16: slabs thinner than
	// the pool, down to the one-layer slab whose two halo faces share a cell.
	testDistSimMatchesSerialBitExact(t, 12, []int{1, 2, 3, 4})
	testDistSimMatchesSerialBitExact(t, 16, []int{1, 2, 3, 4, 8, 16})
}

func testDistSimMatchesSerialBitExact(t *testing.T, n int, rankCounts []int) {
	const steps = 30
	pool := par.NewPool(2)
	serial, err := clover.New(n, clover.Options{})
	if err != nil {
		t.Fatal(err)
	}
	serial.Run(steps, pool, nil)

	for _, ranks := range rankCounts {
		d, err := NewDistSim(n, ranks, clover.Options{})
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		if err := d.Run(steps, pool, nil); err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		if math.Abs(d.Time()-serial.Time()) > 1e-15 {
			t.Errorf("ranks=%d: time %v vs serial %v", ranks, d.Time(), serial.Time())
		}
		// Every cell of every rank matches the serial run exactly: the
		// halo exchange hands each boundary flux the very numbers the
		// serial sweep used.
		for r := 0; r < ranks; r++ {
			sim := d.Rank(r)
			for k := 0; k < sim.LocalNZ(); k++ {
				gk := k + sim.ZOffset()
				for j := 0; j < n; j++ {
					for i := 0; i < n; i++ {
						dr, dmx, dmy, dmz, de := sim.Cell(i, j, k)
						sr, smx, smy, smz, se := serial.Cell(i, j, gk)
						if dr != sr || dmx != smx || dmy != smy || dmz != smz || de != se {
							t.Fatalf("ranks=%d: cell (%d,%d,%d) diverged: rho %v vs %v",
								ranks, i, j, gk, dr, sr)
						}
					}
				}
			}
		}
	}
}

func TestDistSimConservation(t *testing.T) {
	d, err := NewDistSim(10, 3, clover.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pool := par.NewPool(2)
	m0, e0 := d.TotalMass(), d.TotalEnergy()
	if err := d.Run(25, pool, nil); err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(d.TotalMass()-m0) / m0; rel > 1e-12 {
		t.Errorf("distributed mass drift %.3e", rel)
	}
	if rel := math.Abs(d.TotalEnergy()-e0) / e0; rel > 1e-12 {
		t.Errorf("distributed energy drift %.3e", rel)
	}
	if d.StepCount() != 25 {
		t.Errorf("StepCount = %d", d.StepCount())
	}
}

func TestDistSimGridAssembly(t *testing.T) {
	const n = 8
	pool := par.NewPool(2)
	for _, opts := range []clover.Options{{}, {Gamma: 5.0 / 3}} {
		serial, err := clover.New(n, opts)
		if err != nil {
			t.Fatal(err)
		}
		serial.Run(10, pool, nil)
		sg, err := serial.Grid()
		if err != nil {
			t.Fatal(err)
		}
		d, err := NewDistSim(n, 2, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Run(10, pool, nil); err != nil {
			t.Fatal(err)
		}
		dg, err := d.Grid()
		if err != nil {
			t.Fatal(err)
		}
		for _, field := range []string{"energy", "density", "pressure"} {
			want, got := sg.CellField(field), dg.CellField(field)
			for c := range want {
				if want[c] != got[c] {
					t.Fatalf("gamma=%v: assembled %s[%d] = %v, serial %v", opts.Gamma, field, c, got[c], want[c])
				}
			}
		}
	}
}

func TestDistSimPerRankProfiles(t *testing.T) {
	const ranks = 3
	d, err := NewDistSim(9, ranks, clover.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pool := par.NewPool(2)
	recs := make([][]ops.Recorder, ranks)
	for r := range recs {
		recs[r] = make([]ops.Recorder, pool.Workers())
	}
	if _, err := d.Step(pool, recs); err != nil {
		t.Fatal(err)
	}
	for r := range recs {
		p := ops.Merge(recs[r])
		if p.Flops == 0 || p.TotalLoadBytes() == 0 {
			t.Errorf("rank %d recorded no work: %+v", r, p)
		}
	}
}

func TestDistSimRejectsBadConfig(t *testing.T) {
	if _, err := NewDistSim(8, 0, clover.Options{}); err == nil {
		t.Error("zero ranks accepted")
	}
	if _, err := NewDistSim(8, 9, clover.Options{}); err == nil {
		t.Error("more ranks than layers accepted")
	}
	if _, err := NewDistSim(8, 2, clover.Options{SecondOrder: true}); err == nil {
		t.Error("second order with halos accepted")
	}
	if _, err := clover.NewSlab(8, 2, 4, clover.Options{SecondOrder: true}); err == nil {
		t.Error("second-order slab accepted")
	}
	if _, err := clover.NewSlab(8, -1, 4, clover.Options{}); err == nil {
		t.Error("negative slab start accepted")
	}
}

func TestSlabGridRejected(t *testing.T) {
	slab, err := clover.NewSlab(8, 2, 5, clover.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := slab.Grid(); err == nil {
		t.Error("Grid on a slab subdomain accepted")
	}
}
