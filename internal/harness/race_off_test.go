//go:build !race

package harness

const raceDetector = false
