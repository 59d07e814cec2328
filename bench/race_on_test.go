//go:build race

package main

// raceEnabled: the race detector slows instrumented code unevenly, so
// timing comparisons between a replay and a live span are meaningless.
const raceEnabled = true
