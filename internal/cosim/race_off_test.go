//go:build !race

package cosim

const raceEnabled = false
