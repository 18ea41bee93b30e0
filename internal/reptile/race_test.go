//go:build race

package reptile

// raceEnabled reports a -race build. Its sync.Pool drops a share of the
// items put back on purpose, so pooled scratch is reallocated and
// allocation counts do not hold.
const raceEnabled = true
