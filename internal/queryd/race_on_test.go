//go:build race

package queryd_test

// raceEnabled reports whether this test binary was built with the race
// detector, whose instrumentation makes allocation counts meaningless.
const raceEnabled = true
