//go:build !race

package jobd_test

const raceEnabled = false
