//go:build race

package core

// raceEnabled lets the allocation budget step aside under the race
// detector, whose instrumentation allocates.
const raceEnabled = true
