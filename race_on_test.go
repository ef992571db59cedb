//go:build race

package ml4all_test

// raceEnabled reports that the test binary was built with -race, whose
// instrumentation allocates on paths that otherwise do not.
const raceEnabled = true
