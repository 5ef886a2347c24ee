//go:build race

package server_test

// raceEnabled skips allocation-count assertions under -race: the race
// runtime's instrumentation perturbs allocation accounting.
const raceEnabled = true
