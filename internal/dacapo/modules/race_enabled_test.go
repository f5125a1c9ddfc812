//go:build race

package modules_test

// raceEnabled skips allocation-budget assertions: the race detector's
// instrumentation allocates on its own.
const raceEnabled = true
