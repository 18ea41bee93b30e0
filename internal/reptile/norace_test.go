//go:build !race

package reptile

const raceEnabled = false
