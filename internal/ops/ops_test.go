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

func TestWorkingSetKeepsMax(t *testing.T) {
	p := Profile{WorkingSetBytes: 100}
	p.Add(Profile{WorkingSetBytes: 50})
	if p.WorkingSetBytes != 100 {
		t.Errorf("WorkingSetBytes = %d, want 100", p.WorkingSetBytes)
	}
	p.Add(Profile{WorkingSetBytes: 200})
	if p.WorkingSetBytes != 200 {
		t.Errorf("WorkingSetBytes = %d, want 200", p.WorkingSetBytes)
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
