//go:build !race

package queryd_test

const raceEnabled = false
