//go:build !race

package sgxorch

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation allocates, so allocation-count guards skip under it.
const raceEnabled = false
