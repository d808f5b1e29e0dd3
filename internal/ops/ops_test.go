package ops

import (
	"testing"
	"testing/quick"
)

func TestPatternString(t *testing.T) {
	cases := map[Pattern]string{
		Stream:     "stream",
		Strided:    "strided",
		Random:     "random",
		Pattern(9): "unknown",
	}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("Pattern(%d).String() = %q, want %q", p, got, want)
		}
	}
}

func TestRecorderAccumulates(t *testing.T) {
	var r Recorder
	r.Flops(10)
	r.Flops(5)
	r.IntOps(3)
	r.Branches(2)
	r.Loads(64, Stream)
	r.Loads(8, Random)
	r.Stores(128, Strided)
	r.WorkingSet(1 << 20)

	p := r.Profile()
	if p.Flops != 15 {
		t.Errorf("Flops = %d, want 15", p.Flops)
	}
	if p.IntOps != 3 || p.Branches != 2 {
		t.Errorf("IntOps/Branches = %d/%d, want 3/2", p.IntOps, p.Branches)
	}
	if p.LoadBytes[Stream] != 64 || p.LoadBytes[Random] != 8 {
		t.Errorf("LoadBytes = %v", p.LoadBytes)
	}
	if p.RandomAccesses != 1 {
		t.Errorf("RandomAccesses = %d, want 1", p.RandomAccesses)
	}
	if p.StoreBytes[Strided] != 128 {
		t.Errorf("StoreBytes = %v", p.StoreBytes)
	}
	if p.WorkingSetBytes != 1<<20 {
		t.Errorf("WorkingSetBytes = %d, want %d", p.WorkingSetBytes, 1<<20)
	}
}

func TestLoadsNCountsEvents(t *testing.T) {
	var r Recorder
	r.LoadsN(7, 8, Random)
	p := r.Profile()
	if p.RandomAccesses != 7 {
		t.Errorf("RandomAccesses = %d, want 7", p.RandomAccesses)
	}
	if p.LoadBytes[Random] != 56 {
		t.Errorf("LoadBytes[Random] = %d, want 56", p.LoadBytes[Random])
	}
	// Non-random pattern records no events.
	r.LoadsN(3, 64, Stream)
	if got := r.Profile().RandomAccesses; got != 7 {
		t.Errorf("RandomAccesses after stream LoadsN = %d, want 7", got)
	}
}

func TestWorkingSetKeepsMax(t *testing.T) {
	var r Recorder
	r.WorkingSet(100)
	r.WorkingSet(50)
	if got := r.Profile().WorkingSetBytes; got != 100 {
		t.Errorf("WorkingSetBytes = %d, want 100", got)
	}
	r.WorkingSet(200)
	if got := r.Profile().WorkingSetBytes; got != 200 {
		t.Errorf("WorkingSetBytes = %d, want 200", got)
	}
}

func TestProfileAdd(t *testing.T) {
	a := Profile{Flops: 1, IntOps: 2, Branches: 3, WorkingSetBytes: 10}
	a.LoadBytes[Stream] = 8
	b := Profile{Flops: 10, IntOps: 20, Branches: 30, WorkingSetBytes: 5, RandomAccesses: 4}
	b.LoadBytes[Stream] = 16
	b.StoreBytes[Random] = 24

	a.Add(b)
	if a.Flops != 11 || a.IntOps != 22 || a.Branches != 33 {
		t.Errorf("arith sums wrong: %+v", a)
	}
	if a.LoadBytes[Stream] != 24 || a.StoreBytes[Random] != 24 {
		t.Errorf("mem sums wrong: %+v", a)
	}
	if a.WorkingSetBytes != 10 {
		t.Errorf("working set should keep max: %d", a.WorkingSetBytes)
	}
	if a.RandomAccesses != 4 {
		t.Errorf("RandomAccesses = %d, want 4", a.RandomAccesses)
	}
}

func TestDrainResets(t *testing.T) {
	var r Recorder
	r.Flops(42)
	p := r.Drain()
	if p.Flops != 42 {
		t.Errorf("drained Flops = %d, want 42", p.Flops)
	}
	if r.Profile() != (Profile{}) {
		t.Errorf("recorder not reset after Drain: %+v", r.Profile())
	}
}

func TestMergeAndDrainAll(t *testing.T) {
	recs := make([]Recorder, 4)
	for i := range recs {
		recs[i].Flops(uint64(i + 1))
		recs[i].Loads(8, Stream)
	}
	m := Merge(recs)
	if m.Flops != 1+2+3+4 {
		t.Errorf("Merge Flops = %d, want 10", m.Flops)
	}
	if m.LoadBytes[Stream] != 32 {
		t.Errorf("Merge LoadBytes = %d, want 32", m.LoadBytes[Stream])
	}
	// Merge must not reset.
	if recs[0].Profile() == (Profile{}) {
		t.Error("Merge reset a recorder")
	}
	d := DrainAll(recs)
	if d.Flops != 10 {
		t.Errorf("DrainAll Flops = %d, want 10", d.Flops)
	}
	for i := range recs {
		if recs[i].Profile() != (Profile{}) {
			t.Errorf("recorder %d not reset after DrainAll", i)
		}
	}
}

func TestInstructionsEstimate(t *testing.T) {
	p := Profile{Flops: 100, IntOps: 50, Branches: 25}
	p.LoadBytes[Stream] = 80  // 10 words
	p.StoreBytes[Random] = 16 // 2 words
	want := uint64(100 + 50 + 25 + 12)
	if got := p.Instructions(); got != want {
		t.Errorf("Instructions = %d, want %d", got, want)
	}
}

// Property: Add is commutative and associative on the counter fields, and
// the working set is the max of the inputs.
func TestProfileAddProperties(t *testing.T) {
	f := func(af, bf, aws, bws uint64) bool {
		a := Profile{Flops: af % (1 << 40), WorkingSetBytes: aws}
		b := Profile{Flops: bf % (1 << 40), WorkingSetBytes: bws}
		ab, ba := a, b
		ab.Add(b)
		ba.Add(a)
		if ab.Flops != ba.Flops || ab.WorkingSetBytes != ba.WorkingSetBytes {
			return false
		}
		max := aws
		if bws > max {
			max = bws
		}
		return ab.WorkingSetBytes == max && ab.Flops == a.Flops+b.Flops
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Instructions is monotone under Add (adding work never decreases
// the instruction estimate).
func TestInstructionsMonotone(t *testing.T) {
	f := func(f1, i1, m1, f2, i2, m2 uint32) bool {
		a := Profile{Flops: uint64(f1), IntOps: uint64(i1)}
		a.LoadBytes[Stream] = uint64(m1)
		b := Profile{Flops: uint64(f2), IntOps: uint64(i2)}
		b.LoadBytes[Random] = uint64(m2)
		before := a.Instructions()
		a.Add(b)
		return a.Instructions() >= before
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
