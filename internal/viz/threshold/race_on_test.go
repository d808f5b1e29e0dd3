//go:build race

package threshold

// raceDetector reports whether the tests run under -race, where the 80³
// box costs ~15x and adds no new interleaving.
const raceDetector = true
