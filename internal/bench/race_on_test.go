//go:build race

package bench

// raceDetector lets the whole-evaluation tests shrink their experiment list
// under the race detector.
const raceDetector = true
