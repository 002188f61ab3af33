//go:build !race

package testutil

// RaceEnabled reports that this binary was built with the race detector.
const RaceEnabled = false
