//go:build race

package jobd_test

// raceEnabled reports a -race build, whose instrumentation allocates enough
// to blur an allocation bound.
const raceEnabled = true
