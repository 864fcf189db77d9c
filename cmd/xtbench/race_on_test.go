//go:build race

package main

// raceDetector lets TestExperimentsDoc skip under the race detector, which
// slows a whole -quick run from seconds to minutes.
const raceDetector = true
