//go:build !race

package isoviz

const raceEnabled = false
