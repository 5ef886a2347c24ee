package core

// Garbage collection: the §7.3 maintenance duty. Version chains and
// activity history are pruned against a watermark no future read bound or
// activity query can reach.
//
// The watermark rule is also what makes the store's wait-free read path
// safe without epochs or hazard pointers (DESIGN.md §14): pruning only
// swaps a chain's published array for a shorter one — the superseded
// array, and every value it references, stays intact for any reader that
// already loaded it, and the Go runtime reclaims it when the last such
// reader drops its reference. A reader that loads the *new* array cannot
// miss a version it is entitled to, because its bound is at or above the
// watermark by construction.
//
// A cycle visits only the store's prune queue — the chains written since
// the watermark last passed them — so its cost follows the transactions
// that ran, not the size of the database.

import (
	"hdd/internal/obs"
	"hdd/internal/vclock"
)

// maybeGC runs store GC and activity pruning when the commit counter
// crosses the configured period.
func (e *Engine) maybeGC() {
	if e.gcEvery <= 0 {
		return
	}
	if e.commitCounter.Add(1)%e.gcEvery != 0 {
		return
	}
	e.ForceGC()
	e.gcRuns.Add(1)
}

// gcWatermark computes the instant below which no future read bound or
// activity query can reach: the minimum of live initiation times and the
// wall floor, closed under I_old (see activity.Set.ClosedWatermark — a
// threshold chain can dig below any live transaction's initiation by
// following historical activity overlaps).
func (e *Engine) gcWatermark() vclock.Time {
	now := e.clock.Now()
	w := vclock.Min(e.act.GlobalWatermark(now), e.walls.SafeFloor())
	return e.act.ClosedWatermark(w)
}

// GCRuns reports how many automatic GC cycles have run.
func (e *Engine) GCRuns() int64 { return e.gcRuns.Load() }

// ForceGC runs one GC cycle now: it prunes the store and the activity
// history against a freshly computed watermark, records the cycle on the
// attached plane and returns the number of store versions pruned.
func (e *Engine) ForceGC() int {
	watermark := e.gcWatermark()
	pruned, visited := e.store.Prune(watermark)
	e.act.PruneBefore(watermark)
	if o := e.obs; o != nil {
		o.gcPruned.Add(int64(pruned))
		o.gcVisited.Add(int64(visited))
		o.ring.Record(obs.KindGCPrune, obs.NoClass, int64(watermark), int64(pruned), int64(visited))
	}
	return pruned
}
