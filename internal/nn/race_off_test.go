//go:build !race

package nn

// raceEnabled reports whether the race detector is active; its
// instrumentation allocates, so allocation bounds must skip.
const raceEnabled = false
