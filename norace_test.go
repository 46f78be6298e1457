//go:build !race

package duopacity_test

const raceEnabled = false
