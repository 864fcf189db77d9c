//go:build !race

package main

const raceDetector = false
