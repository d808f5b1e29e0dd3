//go:build !race

package clover

const raceDetector = false
