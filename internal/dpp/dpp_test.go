package dpp

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/par"
)

// lengths covers the primitive edge cases: empty input, a single
// element, lengths below any worker count the pool sweeps, non-powers of
// two, and lengths straddling the Block boundary.
var lengths = []int{0, 1, 3, 7, 100, 8191, 8192, 8193, 20000}

func randInts(n int, seed int64) []int32 {
	r := rand.New(rand.NewSource(seed))
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(r.Intn(7)) - 1
	}
	return out
}

func serialScan(in []int32) ([]int32, int32) {
	out := make([]int32, len(in))
	var run int32
	for i, v := range in {
		out[i] = run
		run += v
	}
	return out, run
}

func TestScanMatchesSerial(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		pool := par.NewPool(workers)
		for _, n := range lengths {
			in := randInts(n, int64(n))
			want, wantTotal := serialScan(in)
			out := make([]int32, n)
			if total := ScanExclusive(pool, in, out); total != wantTotal {
				t.Fatalf("workers=%d n=%d: total = %d, want %d", workers, n, total, wantTotal)
			}
			for i := range out {
				if out[i] != want[i] {
					t.Fatalf("workers=%d n=%d: out[%d] = %d, want %d", workers, n, i, out[i], want[i])
				}
			}
		}
		pool.Close()
	}
}

func TestScanInPlace(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Close()
	for _, n := range lengths {
		in := randInts(n, 17+int64(n))
		want, _ := serialScan(in)
		buf := append([]int32(nil), in...)
		ScanExclusive(pool, buf, buf)
		for i := range buf {
			if buf[i] != want[i] {
				t.Fatalf("n=%d: in-place out[%d] = %d, want %d", n, i, buf[i], want[i])
			}
		}
	}
}

// Floating-point scans must be bit-identical across worker counts: the
// fixed blocking makes the summation order independent of the pool.
func TestScanFloatDeterministicAcrossWorkers(t *testing.T) {
	n := 10000
	r := rand.New(rand.NewSource(5))
	in := make([]float64, n)
	for i := range in {
		in[i] = r.NormFloat64() * 1e-3
	}
	var ref []float64
	var refTotal float64
	for _, workers := range []int{1, 2, 4, 8} {
		pool := par.NewPool(workers)
		out := make([]float64, n)
		total := ScanExclusive(pool, in, out)
		if ref == nil {
			ref, refTotal = out, total
		} else {
			if total != refTotal {
				t.Fatalf("workers=%d: total %v != %v", workers, total, refTotal)
			}
			for i := range out {
				if out[i] != ref[i] {
					t.Fatalf("workers=%d: out[%d] = %v, want %v (bit-identical)", workers, i, out[i], ref[i])
				}
			}
		}
		pool.Close()
	}
}

func TestCompact(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Close()
	for _, n := range lengths {
		flags := make([]int32, n)
		var want []int32
		r := rand.New(rand.NewSource(int64(n) * 3))
		for i := range flags {
			if r.Intn(3) == 0 {
				flags[i] = 1
				want = append(want, int32(i))
			}
		}
		out := make([]int32, n)
		got := Compact(pool, flags, out)
		if got != len(want) {
			t.Fatalf("n=%d: compact count = %d, want %d", n, got, len(want))
		}
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("n=%d: out[%d] = %d, want %d", n, i, out[i], want[i])
			}
		}
	}
}

func TestCompactAllAndNone(t *testing.T) {
	pool := par.NewPool(2)
	defer pool.Close()
	n := 1000
	flags := make([]int32, n)
	out := make([]int32, n)
	if got := Compact(pool, flags, out); got != 0 {
		t.Fatalf("all-zero flags compacted to %d", got)
	}
	for i := range flags {
		flags[i] = 1
	}
	if got := Compact(pool, flags, out); got != n {
		t.Fatalf("all-one flags compacted to %d, want %d", got, n)
	}
	for i := range out {
		if out[i] != int32(i) {
			t.Fatalf("out[%d] = %d, want %d", i, out[i], i)
		}
	}
}

func TestReduceByKey(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Close()
	for _, n := range lengths {
		keys := make([]int32, n)
		vals := make([]int64, n)
		r := rand.New(rand.NewSource(int64(n) * 7))
		k := int32(0)
		var wantKeys []int32
		var wantVals []int64
		for i := 0; i < n; i++ {
			if i == 0 || r.Intn(4) == 0 {
				k++ // start a new run
				wantKeys = append(wantKeys, k)
				wantVals = append(wantVals, 0)
			}
			keys[i] = k
			vals[i] = int64(i)
			wantVals[len(wantVals)-1] += int64(i)
		}
		outKeys := make([]int32, n)
		outVals := make([]int64, n)
		segs := ReduceByKey(pool, keys, vals, outKeys, outVals)
		if segs != len(wantKeys) {
			t.Fatalf("n=%d: %d segments, want %d", n, segs, len(wantKeys))
		}
		for s := 0; s < segs; s++ {
			if outKeys[s] != wantKeys[s] || outVals[s] != wantVals[s] {
				t.Fatalf("n=%d: segment %d = (%d, %d), want (%d, %d)",
					n, s, outKeys[s], outVals[s], wantKeys[s], wantVals[s])
			}
		}
	}
}

// Non-adjacent equal keys must stay separate runs (reduce_by_key
// semantics, not a hash aggregation).
func TestReduceByKeyNonAdjacent(t *testing.T) {
	pool := par.NewPool(2)
	defer pool.Close()
	keys := []int32{1, 1, 2, 1}
	vals := []int64{10, 20, 30, 40}
	outKeys := make([]int32, 4)
	outVals := make([]int64, 4)
	segs := ReduceByKey(pool, keys, vals, outKeys, outVals)
	if segs != 3 {
		t.Fatalf("segments = %d, want 3", segs)
	}
	if outKeys[0] != 1 || outVals[0] != 30 || outKeys[1] != 2 || outVals[1] != 30 || outKeys[2] != 1 || outVals[2] != 40 {
		t.Fatalf("got %v %v", outKeys[:segs], outVals[:segs])
	}
}

// Concurrent scans on one pool must be race-free and correct: each
// caller leases disjoint scratch from the pool store. Run under -race
// via the Makefile race target.
func TestConcurrentScansOnOnePool(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Close()
	const goroutines = 8
	const rounds = 20
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			n := 9000 + 13*g
			in := randInts(n, int64(g))
			want, wantTotal := serialScan(in)
			out := make([]int32, n)
			for r := 0; r < rounds; r++ {
				if total := ScanExclusive(pool, in, out); total != wantTotal {
					errs <- "total mismatch"
					return
				}
				for i := range out {
					if out[i] != want[i] {
						errs <- "element mismatch"
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// After a warm-up call, a scan leases all its working memory from the
// pool scratch store: steady-state compositions allocate nothing.
func TestScanSteadyStateAllocs(t *testing.T) {
	pool := par.NewPool(1)
	defer pool.Close()
	n := 30000
	in := randInts(n, 1)
	out := make([]int32, n)
	ScanExclusive(pool, in, out) // warm the scratch store
	allocs := testing.AllocsPerRun(20, func() {
		ScanExclusive(pool, in, out)
	})
	if allocs > 0 {
		t.Errorf("steady-state scan allocates %.1f objects/op, want 0", allocs)
	}
}
