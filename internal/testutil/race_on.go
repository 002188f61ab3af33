//go:build race

package testutil

// RaceEnabled reports that this binary was built with the race detector.
// Its 10-20x slowdown is not uniform across operators or scheduling
// modes, so timing-shape tests skip themselves or check only the bounds
// the slowdown cannot break.
const RaceEnabled = true
