package viz

import (
	"testing"

	"repro/internal/mesh"
	"repro/internal/ops"
	"repro/internal/par"
)

func TestExecChargeAccumulates(t *testing.T) {
	ex := NewExec(par.NewPool(1))
	var a, b ops.Profile
	a.Flops, a.Launches, a.WorkingSetBytes = 10, 1, 1<<20
	a.LoadBytes[ops.Stream] = 64
	b.Flops, b.Launches, b.WorkingSetBytes = 5, 2, 1<<10
	b.StoreBytes[ops.Strided] = 128
	ex.Charge(a)
	ex.Charge(b)
	p := ex.Drain()
	if p.Flops != 15 || p.Launches != 3 {
		t.Errorf("Flops/Launches = %d/%d, want 15/3", p.Flops, p.Launches)
	}
	if p.LoadBytes[ops.Stream] != 64 || p.StoreBytes[ops.Strided] != 128 {
		t.Errorf("memory traffic = %v / %v", p.LoadBytes, p.StoreBytes)
	}
	if p.WorkingSetBytes != 1<<20 {
		t.Errorf("WorkingSetBytes = %d, want the larger charge's %d", p.WorkingSetBytes, 1<<20)
	}
}

func TestExecDrainResets(t *testing.T) {
	ex := NewExec(par.NewPool(1))
	var p ops.Profile
	p.Flops = 42
	ex.Charge(p)
	if got := ex.Drain(); got.Flops != 42 {
		t.Errorf("drained Flops = %d, want 42", got.Flops)
	}
	if got := ex.Drain(); got != (ops.Profile{}) {
		t.Errorf("context not reset after Drain: %+v", got)
	}
}

// TestClipEmitCostCountsEvents: every welded point is one random probe,
// so the miss model sees one touch event per point, not one per charge;
// the emission's hexes and tets are told apart by their connectivity.
func TestClipEmitCostCountsEvents(t *testing.T) {
	var p ops.Profile
	// Two hexes (8 connectivity entries each) and five tets (4 each).
	ClipEmitCost(&p, mesh.Sizes{Points: 7, Cells: 7, Conn: 2*8 + 5*4})
	if p.RandomAccesses != 7 || p.LoadBytes[ops.Random] != 7*32 {
		t.Errorf("RandomAccesses/LoadBytes[random] = %d/%d, want 7/%d", p.RandomAccesses, p.LoadBytes[ops.Random], 7*32)
	}
	if want := uint64(2*(8*32+8*4) + 5*4*36); p.StoreBytes[ops.Stream] != want {
		t.Errorf("StoreBytes[stream] = %d, want %d (2 hexes, 5 tets)", p.StoreBytes[ops.Stream], want)
	}
	ClipEmitCost(&p, mesh.Sizes{Points: 3})
	if p.RandomAccesses != 10 {
		t.Errorf("RandomAccesses = %d after a second emission, want 10", p.RandomAccesses)
	}
}
