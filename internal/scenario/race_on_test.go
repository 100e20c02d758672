//go:build race

package scenario

// raceEnabled reports that the race detector is on: its instrumentation
// allocates, so exact allocation counts do not hold.
const raceEnabled = true
