//go:build race

package sim_test

// raceEnabled reports whether the race detector is compiled in; the
// full Table II runs skip under it.
const raceEnabled = true
