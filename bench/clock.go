package main

import "time"

// Every wall-clock read of the benchmark goes through the three
// helpers below, so the simclock analyzer has exactly three audited
// exemptions for the whole directory.

// now reads the machine clock.
//
//apt:allow simclock the benchmark's measurand is wall-clock time
func now() time.Time { return time.Now() }

// since is the wall time elapsed from t, in seconds.
//
//apt:allow simclock the benchmark's measurand is wall-clock time
func since(t time.Time) float64 { return time.Since(t).Seconds() }

// sleepUntil blocks until the machine clock reaches t (the open-loop
// generator's arrival schedule and the epoch watcher's poll are on the
// wall clock).
//
//apt:allow simclock the load generator schedules real arrivals
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}
