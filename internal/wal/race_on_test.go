//go:build race

package wal

// raceEnabled skips allocation-count assertions under -race: the race
// runtime's instrumentation perturbs allocation accounting.
const raceEnabled = true
