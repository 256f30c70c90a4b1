//go:build race

package main

// raceEnabled: the race detector's instrumentation dominates CPU profiles.
const raceEnabled = true
