//go:build !race

package hdd

// raceEnabled skips allocation-count assertions under -race: the race
// detector instruments allocations and makes AllocsPerRun meaningless.
const raceEnabled = false
