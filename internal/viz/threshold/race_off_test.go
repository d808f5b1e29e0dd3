//go:build !race

package threshold

const raceDetector = false
