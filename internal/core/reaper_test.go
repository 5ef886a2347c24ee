package core

import (
	"errors"
	"testing"
	"time"

	"hdd/internal/cc"
	"hdd/internal/schema"
)

// newTimeoutEngine builds an engine over the two-level partition with the
// given transaction timeout; its reaper scans every timeout/4.
func newTimeoutEngine(t testing.TB, timeout time.Duration) *Engine {
	t.Helper()
	e, err := NewEngine(Config{Partition: twoLevel(t), WallInterval: 4, TxnTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Close() })
	return e
}

// beginWithTimeout begins an update transaction of class whose deadline is
// timeout from now, as Begin would under Config.TxnTimeout = timeout.
// Nothing else may begin a transaction on e meanwhile.
func beginWithTimeout(t testing.TB, e *Engine, class schema.ClassID, timeout time.Duration) cc.Txn {
	t.Helper()
	defer func(d time.Duration) { e.txnTimeout = d }(e.txnTimeout)
	e.txnTimeout = timeout
	txn, err := e.Begin(class)
	if err != nil {
		t.Fatal(err)
	}
	return txn
}

// pump commits n transactions: class-0 writes versioning g0 and class-1
// writes reading g0, advancing the clock and polling walls the way live
// traffic does.
func pump(t *testing.T, e *Engine, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		w, err := e.Begin(0)
		if err != nil {
			t.Fatal(err)
		}
		write(t, w, gr(0, 1), "v")
		mustCommit(t, w)
		r, err := e.Begin(1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Read(gr(0, 1)); err != nil {
			t.Fatal(err)
		}
		write(t, r, gr(1, 1), "w")
		mustCommit(t, r)
	}
}

func wallsReleased(e *Engine) int {
	released, _ := e.Walls().Stats()
	return released
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", msg)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAbandonedTxnStallsWallsWithoutReaper is the negative half of the
// liveness story: one abandoned update transaction freezes time-wall
// release (C_late is never computable at instants ≥ its initiation) and
// pins the GC watermark so nothing is ever pruned.
func TestAbandonedTxnStallsWallsWithoutReaper(t *testing.T) {
	e, err := NewEngine(Config{Partition: twoLevel(t), WallInterval: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// A client begins in the wall manager's start class (the lowest,
	// class 1), installs a pending version, and vanishes. Every wall
	// scheduled after its initiation has a class-1 component at the wall
	// instant itself, and C_late_1 at that instant stays uncomputable
	// while the transaction is active — wall release freezes.
	abandoned, err := e.Begin(1)
	if err != nil {
		t.Fatal(err)
	}
	write(t, abandoned, gr(1, 99), "orphan")

	before := wallsReleased(e)
	pump(t, e, 25) // plenty of commits and wall polls
	if got := wallsReleased(e); got != before {
		t.Fatalf("walls released while a transaction was abandoned: %d -> %d", before, got)
	}
	// 25 committed versions of gr(0,1) exist, all above the abandoned
	// transaction's initiation: the watermark cannot pass it, so GC
	// reclaims nothing.
	if pruned := e.ForceGC(); pruned != 0 {
		t.Fatalf("ForceGC pruned %d versions past an active transaction", pruned)
	}

	// Releasing the transaction restores everything.
	if err := abandoned.Abort(); err != nil {
		t.Fatal(err)
	}
	pump(t, e, 2)
	if got := wallsReleased(e); got <= before {
		t.Fatalf("walls still stalled after abort: %d -> %d", before, got)
	}
	if pruned := e.ForceGC(); pruned == 0 {
		t.Fatal("ForceGC pruned nothing after the stall cleared")
	}
}

// TestReaperRestoresWallAndGCProgress is the positive half: with deadlines
// and the reaper enabled, the same abandonment is detected, the stuck
// transaction is force-aborted (counted in Stats().ReapedTxns), and wall
// release plus garbage collection resume.
func TestReaperRestoresWallAndGCProgress(t *testing.T) {
	e := newTimeoutEngine(t, 30*time.Millisecond)

	abandoned, err := e.Begin(1)
	if err != nil {
		t.Fatal(err)
	}
	write(t, abandoned, gr(1, 99), "orphan")

	stalled := wallsReleased(e)
	pump(t, e, 10)
	if got := wallsReleased(e); got != stalled {
		t.Fatalf("walls released while the abandoned transaction was live: %d -> %d", stalled, got)
	}

	waitFor(t, 2*time.Second, func() bool { return e.Stats().ReapedTxns >= 1 },
		"reaper to collect the abandoned transaction")

	// Progress resumes: the next completions schedule and release walls.
	pump(t, e, 3)
	if got := wallsReleased(e); got <= stalled {
		t.Fatalf("walls did not resume after reap: %d -> %d", stalled, got)
	}
	if pruned := e.ForceGC(); pruned == 0 {
		t.Fatal("ForceGC still pruning nothing after reap")
	}
	if n := e.ActiveTxns(); n != 0 {
		t.Fatalf("ActiveTxns = %d after reap", n)
	}
	// The abandoned client's next operation learns its fate.
	if _, err := abandoned.Read(gr(0, 99)); cc.AbortReason(err) != cc.ReasonTimedOut {
		t.Fatalf("operation on reaped txn: %v", err)
	}
	if err := abandoned.Commit(); cc.AbortReason(err) != cc.ReasonTimedOut {
		t.Fatalf("commit of reaped txn: %v", err)
	}
}

// TestBlockedReadTimesOut: a Protocol B read blocked on a pending version
// wakes on its own deadline and aborts with ReasonTimedOut instead of
// waiting forever.
func TestBlockedReadTimesOut(t *testing.T) {
	e, err := NewEngine(Config{Partition: twoLevel(t), WallInterval: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	writer, err := e.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	write(t, writer, gr(0, 1), "pending")

	reader := beginWithTimeout(t, e, 0, 25*time.Millisecond)
	start := time.Now()
	_, rerr := reader.Read(gr(0, 1))
	if cc.AbortReason(rerr) != cc.ReasonTimedOut {
		t.Fatalf("blocked read returned %v, want %s abort", rerr, cc.ReasonTimedOut)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("timed-out read took %v", waited)
	}
	if got := e.Stats().TimedOutReads; got != 1 {
		t.Fatalf("TimedOutReads = %d", got)
	}
	// The reader is dead; the writer is unaffected.
	if _, err := reader.Read(gr(0, 1)); cc.AbortReason(err) != cc.ReasonTimedOut {
		t.Fatalf("second read on timed-out txn: %v", err)
	}
	mustCommit(t, writer)
}

// TestReaperUnblocksWaitingReaders: aborting the stuck writer closes its
// pending version's resolve channel, so a patient blocked reader retries
// and completes against the previous committed version.
func TestReaperUnblocksWaitingReaders(t *testing.T) {
	// The stuck writer gets the engine's short deadline; the others one
	// the test outlives.
	e := newTimeoutEngine(t, 20*time.Millisecond)

	seed := beginWithTimeout(t, e, 0, time.Minute)
	write(t, seed, gr(0, 1), "committed")
	mustCommit(t, seed)

	writer, err := e.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	write(t, writer, gr(0, 1), "stuck")

	reader := beginWithTimeout(t, e, 0, time.Minute)
	got, err := reader.Read(gr(0, 1)) // blocks until the reaper kills writer
	if err != nil {
		t.Fatalf("read after reap: %v", err)
	}
	if string(got) != "committed" {
		t.Fatalf("read %q, want %q", got, "committed")
	}
	mustCommit(t, reader)
	// The reap resolves the pending version, waking the reader, before it
	// is counted.
	waitFor(t, 2*time.Second, func() bool { return e.Stats().ReapedTxns == 1 },
		"the reap to be counted")
}

// TestAbandonedReadOnlyTxnReaped: an abandoned Protocol C transaction
// holds a wall-floor acquisition that pins garbage collection; the reaper
// releases it.
func TestAbandonedReadOnlyTxnReaped(t *testing.T) {
	e := newTimeoutEngine(t, 25*time.Millisecond)

	ro, err := e.BeginReadOnly()
	if err != nil {
		t.Fatal(err)
	}
	if n := e.ActiveTxns(); n != 1 {
		t.Fatalf("ActiveTxns = %d", n)
	}
	waitFor(t, 2*time.Second, func() bool { return e.Stats().ReapedTxns >= 1 },
		"reaper to collect the abandoned read-only transaction")
	if n := e.ActiveTxns(); n != 0 {
		t.Fatalf("ActiveTxns = %d after reap", n)
	}
	if _, err := ro.Read(gr(0, 1)); cc.AbortReason(err) != cc.ReasonTimedOut {
		t.Fatalf("read on reaped read-only txn: %v", err)
	}
	// Abort of an already-reaped transaction stays a no-op.
	if err := ro.Abort(); err != nil {
		t.Fatal(err)
	}
}

// TestReaperUnblocksCheckpoint: an abandoned update transaction holds its
// class's gate share, so a snapshot, which takes every class gate
// exclusively, waits behind it; reaping the transaction lets the
// snapshot through.
func TestReaperUnblocksCheckpoint(t *testing.T) {
	e, err := NewEngine(Config{Partition: twoLevel(t), WallInterval: 4, TxnTimeout: 25 * time.Millisecond,
		DataDir: t.TempDir(), SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	txn, err := e.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	write(t, txn, gr(0, 7), "abandoned")
	// Client vanishes; the snapshot must eventually get in.
	done := make(chan error, 1)
	go func() { done <- e.Snapshot() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("snapshot after reap: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("snapshot still blocked on the abandoned transaction")
	}
	if got := e.Stats().ReapedTxns; got != 1 {
		t.Fatalf("ReapedTxns = %d", got)
	}
	if err := txn.Commit(); cc.AbortReason(err) != cc.ReasonTimedOut {
		t.Fatalf("commit of reaped txn: %v", err)
	}
}

// TestReapExpiredManual drives the registry directly: transactions without
// deadlines are never reaped, expired ones are, and completed ones
// unregister.
func TestReapExpiredManual(t *testing.T) {
	e, err := NewEngine(Config{Partition: twoLevel(t), WallInterval: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	forever, err := e.Begin(0) // no deadline
	if err != nil {
		t.Fatal(err)
	}
	short := beginWithTimeout(t, e, 1, 10*time.Millisecond)
	if n := e.ActiveTxns(); n != 2 {
		t.Fatalf("ActiveTxns = %d", n)
	}
	// Far-future "now": only deadline-bearing transactions expire.
	if n := e.ReapExpired(time.Now().Add(time.Hour)); n != 1 {
		t.Fatalf("ReapExpired = %d, want 1", n)
	}
	if err := short.Commit(); !errors.Is(err, cc.ErrTxnDone) && !cc.IsAbort(err) {
		t.Fatalf("commit of reaped txn: %v", err)
	}
	mustCommit(t, forever)
	if n := e.ActiveTxns(); n != 0 {
		t.Fatalf("ActiveTxns = %d at end", n)
	}
	if got := e.Stats().ReapedTxns; got != 1 {
		t.Fatalf("ReapedTxns = %d", got)
	}
}

// TestPathReadOnlyReaped covers the fictitious-class reader: its pinned
// activity-link floor is released by the reaper.
func TestPathReadOnlyReaped(t *testing.T) {
	e, err := NewEngine(Config{Partition: twoLevel(t), WallInterval: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	ro, err := e.BeginReadOnlyOnPath(schema.ClassID(1))
	if err != nil {
		t.Fatal(err)
	}
	_ = ro
	if n := e.ReapExpired(time.Now().Add(time.Hour)); n != 0 {
		t.Fatalf("reaped a deadline-less path reader: %d", n)
	}

	e2 := newTimeoutEngine(t, 10*time.Millisecond)
	ro2, err := e2.BeginReadOnlyOnPath(schema.ClassID(1))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return e2.Stats().ReapedTxns >= 1 },
		"reaper to collect the abandoned path reader")
	if _, err := ro2.Read(gr(0, 1)); cc.AbortReason(err) != cc.ReasonTimedOut {
		t.Fatalf("read on reaped path reader: %v", err)
	}
}
