//go:build race

package isoviz

// raceEnabled reports a -race build. The race detector makes sync.Pool drop
// pooled items at random, so allocation bounds that count the dist wire
// buffers need headroom under it.
const raceEnabled = true
