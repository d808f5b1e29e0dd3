//go:build race

package clover

// raceDetector reports whether the tests run under -race, where the
// oracle comparison costs ~20x and the large sizes add no new interleaving.
const raceDetector = true
