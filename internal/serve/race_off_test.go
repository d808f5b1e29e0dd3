//go:build !race

package serve

const raceDetector = false
