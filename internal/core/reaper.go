package core

import (
	"time"

	"hdd/internal/cc"
)

// Stuck-transaction reaping.
//
// HDD's liveness hinges on every transaction eventually resolving: a wall
// TW(m,s) only releases once C_late is computable at every component, and
// C_late_i(m) is computable only when no transaction of T_i initiated at or
// before m is still active (§5.1). A client that crashes mid-transaction —
// or simply walks away without Abort — therefore freezes time-wall release
// for the whole system, makes Protocol C reads arbitrarily stale, and pins
// the GC watermark so version chains and activity history grow without
// bound. Abandoned read-only transactions are gentler but still pin the GC
// floor through their wall acquisition.
//
// The reaper is the engine's answer: every in-flight transaction registers
// itself with a deadline (in the TxnID-striped liveRegistry, registry.go),
// and a background goroutine periodically force-aborts those that outlive
// it. Force-abort releases exactly what the transaction holds — pending
// versions, the activity-table entry, the update-gate share, wall-floor
// acquisitions — after which the next wall Poll and GC cycle proceed as if
// the client had aborted properly.

// liveTxn is the reaper's view of an in-flight transaction.
type liveTxn interface {
	// expiry returns the transaction's deadline; zero means it never
	// expires. Immutable after Begin.
	expiry() time.Time
	// reap force-aborts the transaction, releasing everything it holds.
	// It reports whether this call performed the abort (false if the
	// transaction finished or was reaped concurrently).
	reap() bool
}

// ActiveTxns reports the number of in-flight transactions (update and
// read-only), for tests and monitoring.
func (e *Engine) ActiveTxns() int { return e.live.count() }

// ForceAbort force-aborts the in-flight transaction with the given id,
// exactly as the background reaper would: its pending versions,
// activity-table entry, class-gate share, and wall-floor acquisitions
// are released, the kill is counted in Stats().ReapedTxns, and any
// straggling operation on the transaction observes a cc.AbortError with
// cc.ReasonTimedOut. It reports whether this call performed the abort
// (false when no such transaction is in flight, or it finished — or was
// reaped — concurrently).
//
// The network server (internal/server) uses it to clean up transactions
// orphaned by a client disconnect without waiting for their deadline.
func (e *Engine) ForceAbort(id cc.TxnID) bool {
	if t := e.live.lookup(id); t != nil {
		return t.reap()
	}
	return false
}

// reaper is the background loop started by NewEngine when deadlines are
// enabled. It exits when the engine closes.
func (e *Engine) reaper(interval time.Duration) {
	defer e.bgWG.Done()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-e.closed:
			return
		case <-tick.C:
			e.ReapExpired(time.Now())
		}
	}
}

// ReapExpired force-aborts every in-flight transaction whose deadline
// precedes now, returning the number reaped. The background reaper calls
// it periodically; tests call it directly for determinism. Reaped
// transactions are counted in Stats().ReapedTxns, and their clients see a
// cc.AbortError with cc.ReasonTimedOut on the next operation.
//
// Victims are collected stripe by stripe and reaped with no stripe lock
// held: reap() re-enters unregister, and a concurrent normal completion
// may win the race (reap reports false then).
func (e *Engine) ReapExpired(now time.Time) int {
	n := 0
	for _, t := range e.live.expired(now) {
		if t.reap() {
			n++
		}
	}
	return n
}
