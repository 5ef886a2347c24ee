package hdd

import (
	"runtime"
	"testing"
)

// Allocation budgets of one embedded hdd.Run, per call: the update shape
// is a Protocol A read and a Protocol B read-modify-write of 64 bytes,
// committed; the read-only shape is three Protocol C reads, two of them
// found. Run adds nothing to either: its retry RNG is built only by a
// backoff. The update transaction allocates itself, one read chunk for
// both copies and the written value (plus, now and then, a version array
// the store grows), 731 B measured; the read-only one itself and its
// chunk.
const (
	updateRunAllocs    = 3
	updateRunBytes     = 768
	protocolCRunAllocs = 2
)

// perRun returns f's allocations and allocated bytes per call, on one P
// and rounded down as testing.AllocsPerRun reports them, after one warm-up
// call.
func perRun(runs int, f func()) (allocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs), (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestRunAllocBudgets pins what one hdd.Run allocates on an engine with the
// default configuration.
func TestRunAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	e, err := NewEngine(Config{Partition: retryPartition(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	upper, lower := GranuleID{Segment: 0, Key: 1}, GranuleID{Segment: 1, Key: 1}
	val := make([]byte, 64)
	mustRun := func(class ClassID, fn func(Txn) error) {
		if err := Run(e, class, fn, RetryPolicy{}); err != nil {
			t.Fatal(err)
		}
	}
	mustRun(0, func(tx Txn) error { return tx.Write(upper, val) })
	mustRun(1, func(tx Txn) error { return tx.Write(lower, val) })
	e.Walls().Force()

	update := func(tx Txn) error {
		if _, err := tx.Read(upper); err != nil { // Protocol A
			return err
		}
		if _, err := tx.Read(lower); err != nil { // Protocol B
			return err
		}
		return tx.Write(lower, val)
	}
	allocs, bytes := perRun(1000, func() { mustRun(1, update) })
	if allocs > updateRunAllocs || bytes > updateRunBytes {
		t.Errorf("update hdd.Run: %d allocs and %d B per call, budget %d and %d B", allocs, bytes, updateRunAllocs, updateRunBytes)
	}

	readOnly := func(tx Txn) error {
		for _, g := range []GranuleID{upper, lower, {Segment: 1, Key: 2}} {
			if _, err := tx.Read(g); err != nil {
				return err
			}
		}
		return nil
	}
	allocs, _ = perRun(1000, func() { mustRun(NoClass, readOnly) })
	if allocs > protocolCRunAllocs {
		t.Errorf("Protocol C hdd.Run: %d allocs per call, budget %d", allocs, protocolCRunAllocs)
	}
}
