//go:build race

package duopacity_test

// raceEnabled reports whether the test binary runs under the race
// detector, which makes sync.Pool drop items on purpose — allocation
// counts of pooled paths mean nothing there.
const raceEnabled = true
