package power

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/perfctr"
)

// TestRing pins the Governor's decision log: a ring retains the newest
// cap entries oldest first and counts the ones it evicted.
func TestRing(t *testing.T) {
	testRing(t, func(i int) obs.Decision { return obs.Decision{Cycle: i} },
		func(d obs.Decision) int { return d.Cycle })
}

// TestSampleRing pins the same for the Governor's sample log.
func TestSampleRing(t *testing.T) {
	testRing(t, func(i int) perfctr.Sample { return perfctr.Sample{TimeSec: float64(i)} },
		func(s perfctr.Sample) int { return int(s.TimeSec) })
}

// testRing pushes entries 0, 1, … made by mk into a 4-entry ring and
// checks which it holds by the number id reads back.
func testRing[T any](t *testing.T, mk func(int) T, id func(T) int) {
	for _, tc := range []struct {
		name           string
		pushes         int
		first, dropped int // the oldest entry retained; how many were evicted
	}{
		{"empty", 0, 0, 0},
		{"unwrapped", 2, 0, 0},
		{"full", 4, 0, 0},
		{"wrapped", 6, 2, 2},
		{"wrapped twice", 10, 6, 6},
	} {
		r := ring[T]{cap: 4}
		for i := range tc.pushes {
			r.push(mk(i))
		}
		got := r.items()
		if want := tc.pushes - tc.dropped; len(got) != want || r.dropped() != tc.dropped {
			t.Errorf("%s: holds %d, dropped %d; want %d and %d", tc.name, len(got), r.dropped(), want, tc.dropped)
			continue
		}
		for i, v := range got {
			if id(v) != tc.first+i {
				t.Errorf("%s: entry %d is %d, want %d (oldest first)", tc.name, i, id(v), tc.first+i)
			}
		}
	}
}
