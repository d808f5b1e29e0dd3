//go:build race

package serve

// raceDetector reports whether the tests run under -race, which adds
// allocations of its own to a request.
const raceDetector = true
