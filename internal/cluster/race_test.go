//go:build race

package cluster

// raceEnabled reports a -race build, whose detector allocates on every
// goroutine start: the daemons start one per request, so the routed path's
// allocation budget holds only without the detector.
const raceEnabled = true
