//go:build !race

package transport

// raceEnabled reports whether the race detector is compiled in. Under it,
// sync.Pool drops items at random, so allocation counts are not exact.
const raceEnabled = false
