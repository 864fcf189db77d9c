//go:build race

package cosim

// raceEnabled lets the allocation budgets step aside under the race
// detector, whose instrumentation allocates.
const raceEnabled = true
