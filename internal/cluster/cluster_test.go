package cluster

import (
	"math"
	"testing"

	"repro/internal/cpu"
	"repro/internal/par"
	"repro/internal/sim/clover"
	"repro/internal/viz"
	"repro/internal/viz/contour"
)

// shockNodes builds an imbalanced 4-node cluster: the clover shock sits in
// one corner, so the low-z slabs carry almost all the contour work.
func shockNodes(t testing.TB, variation float64) []Node {
	t.Helper()
	sim, err := clover.New(24, clover.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pool := par.NewPool(2)
	for i := 0; i < 40; i++ {
		sim.Step(pool, nil)
	}
	g, err := sim.Grid()
	if err != nil {
		t.Fatal(err)
	}
	f := contour.New(contour.Options{Field: "energy", NumIsovalues: 5})
	nodes, err := BuildNodes(g, f, 4, cpu.BroadwellEP(), variation,
		func() *viz.Exec { return viz.NewExec(pool) })
	if err != nil {
		t.Fatal(err)
	}
	return nodes
}

func TestVarySpecDeterministicAndBounded(t *testing.T) {
	base := cpu.BroadwellEP()
	for id := 0; id < 64; id++ {
		a := VarySpec(base, id, 0.1)
		b := VarySpec(base, id, 0.1)
		if a.CdynWatts != b.CdynWatts {
			t.Fatal("variation not deterministic")
		}
		r := a.CdynWatts / base.CdynWatts
		if r < 0.9-1e-9 || r > 1.1+1e-9 {
			t.Fatalf("node %d variation %v outside +-10%%", id, r)
		}
	}
	// Different nodes really differ.
	if VarySpec(base, 1, 0.1).CdynWatts == VarySpec(base, 2, 0.1).CdynWatts {
		t.Error("nodes 1 and 2 identical")
	}
	// Zero/negative amplitude is a no-op.
	if VarySpec(base, 5, 0).CdynWatts != base.CdynWatts {
		t.Error("zero amplitude changed the spec")
	}
	if VarySpec(base, 5, -1).CdynWatts != base.CdynWatts {
		t.Error("negative amplitude changed the spec")
	}
}

func TestBuildNodesImbalance(t *testing.T) {
	nodes := shockNodes(t, 0)
	if len(nodes) != 4 {
		t.Fatalf("nodes = %d", len(nodes))
	}
	// The shock corner slab must carry measurably more work than the far
	// slab (§III-A non-uniform distribution).
	t0 := nodes[0].Exec.UnderCap(120).TimeSec
	t3 := nodes[3].Exec.UnderCap(120).TimeSec
	if t0 <= t3 {
		t.Errorf("expected the shock slab (node 0: %v s) to out-work the far slab (node 3: %v s)", t0, t3)
	}
}

func TestUniformCaps(t *testing.T) {
	nodes := shockNodes(t, 0.08)
	a, err := UniformCaps(nodes, 4*70)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range a.CapsWatts {
		if c != 70 {
			t.Errorf("uniform cap = %v", c)
		}
	}
	if a.MakespanSec <= 0 || len(a.TimesSec) != 4 {
		t.Errorf("assignment incomplete: %+v", a)
	}
	// Idle node-seconds are positive under imbalance.
	if a.IdleNodeSec <= 0 {
		t.Error("no idle time despite imbalance")
	}
	if _, err := UniformCaps(nodes, 4*10); err == nil {
		t.Error("budget below floors accepted")
	}
	if _, err := UniformCaps(nil, 100); err == nil {
		t.Error("empty cluster accepted")
	}
}

func TestBalancedBeatsUniform(t *testing.T) {
	nodes := shockNodes(t, 0.08)
	budget := 4 * 55.0 // scarce: below the sum of demands
	uni, err := UniformCaps(nodes, budget)
	if err != nil {
		t.Fatal(err)
	}
	bal, err := BalancedCaps(nodes, budget)
	if err != nil {
		t.Fatal(err)
	}
	if bal.MakespanSec > uni.MakespanSec+1e-12 {
		t.Errorf("balanced makespan %v worse than uniform %v", bal.MakespanSec, uni.MakespanSec)
	}
	// Budget respected.
	var total float64
	for _, c := range bal.CapsWatts {
		total += c
	}
	if total > budget+1e-6 {
		t.Errorf("balanced caps sum %v exceeds budget %v", total, budget)
	}
	// Floors respected.
	for i, c := range bal.CapsWatts {
		if c < nodes[i].Spec.MinCapWatts-1e-9 {
			t.Errorf("node %d cap %v below floor", i, c)
		}
	}
	// The critical (shock) node receives at least the uniform share.
	if bal.CapsWatts[0] < uni.CapsWatts[0]-1 {
		t.Errorf("critical node starved: %v vs uniform %v", bal.CapsWatts[0], uni.CapsWatts[0])
	}
}

func TestBalancedCapsErrors(t *testing.T) {
	nodes := shockNodes(t, 0)
	if _, err := BalancedCaps(nodes, 4*20); err == nil {
		t.Error("budget below floors accepted")
	}
	if _, err := BalancedCaps(nil, 100); err == nil {
		t.Error("empty cluster accepted")
	}
}

func TestGenerousBudgetRunsEveryoneAtDemand(t *testing.T) {
	nodes := shockNodes(t, 0)
	bal, err := BalancedCaps(nodes, 4*120)
	if err != nil {
		t.Fatal(err)
	}
	// With a TDP-per-node budget nothing throttles: makespan equals the
	// unconstrained makespan.
	want := 0.0
	for _, n := range nodes {
		want = math.Max(want, n.Exec.UnderCap(120).TimeSec)
	}
	if math.Abs(bal.MakespanSec-want) > 1e-9 {
		t.Errorf("generous makespan %v, want %v", bal.MakespanSec, want)
	}
}

func TestTrappedCapacity(t *testing.T) {
	nodes := shockNodes(t, 0.08)
	budget := 4 * 60.0
	uni, err := UniformCaps(nodes, budget)
	if err != nil {
		t.Fatal(err)
	}
	trapped := TrappedCapacityWatts(nodes, uni, budget)
	if trapped <= 0 {
		t.Errorf("uniform capping should trap capacity, got %v W", trapped)
	}
	if trapped >= budget {
		t.Errorf("trapped capacity %v exceeds the budget", trapped)
	}
}
