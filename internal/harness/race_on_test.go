//go:build race

package harness

// raceDetector reports whether the tests run under -race, where the
// larger renders cost ~20x and add no new interleaving.
const raceDetector = true
