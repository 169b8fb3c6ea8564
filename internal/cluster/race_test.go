//go:build race

package cluster

// raceEnabled reports a -race build, whose detector allocates on every
// goroutine start: the routed path starts several per request, so its
// allocation budget holds only without the detector.
const raceEnabled = true
