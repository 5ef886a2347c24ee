package core

// The update-transaction entry points that never wait (TryBegin,
// TryReadShared, CommitAsync): each completes or reports "would wait"
// having done nothing. The server runs them on its session goroutine.

import (
	"errors"
	"testing"
	"time"

	"hdd/internal/cc"
)

// TestTryBeginWhileCheckpointPending: with a snapshot waiting for the
// class gate, TryBegin reports "would wait" instead of queueing behind it
// (a blocking Begin here would wait for a snapshot that waits for the
// open transaction's commit). Once the commit lets the snapshot run,
// TryBegin succeeds again.
func TestTryBeginWhileCheckpointPending(t *testing.T) {
	e := durableEngine(t, twoLevel(t), t.TempDir())
	defer e.Close()
	open, err := e.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- e.Snapshot() }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		txn, ok, err := e.TryBegin(0)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			if txn != nil {
				t.Fatalf("TryBegin reported would-wait and returned %v", txn)
			}
			break
		}
		txn.Abort() // the snapshot is not waiting yet
		if time.Now().After(deadline) {
			t.Fatal("TryBegin never saw the pending snapshot")
		}
		time.Sleep(time.Millisecond)
	}
	if n := e.ActiveTxns(); n != 1 {
		t.Fatalf("%d active transactions after a would-wait TryBegin, want the open one", n)
	}
	mustCommit(t, open)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	txn, ok, err := e.TryBegin(0)
	if !ok || err != nil {
		t.Fatalf("TryBegin after the snapshot = (%v, %v)", ok, err)
	}
	mustCommit(t, txn)
	if _, ok, err := e.TryBegin(7); !ok || err == nil {
		t.Fatalf("TryBegin of an unknown class = (%v, %v), want a completed error", ok, err)
	}
}

// TestTryReadSharedWouldWait: a Protocol B read behind a pending version
// reports "would wait" and leaves no trace (no registration, no blocked
// read, no read counted); Protocol A and own-write reads complete and
// register nothing; once the writer commits the read completes.
func TestTryReadSharedWouldWait(t *testing.T) {
	e := newEngine(t, twoLevel(t), nil)
	w, _ := e.Begin(0)
	write(t, w, gr(0, 1), "pending")
	r, _ := e.Begin(0)
	low, _ := e.Begin(1)
	ur, ul := r.(*updateTxn), low.(*updateTxn)

	regs, stats := e.Store().Stats().ReadRegistrations, e.Stats()
	if val, ok, err := ur.TryReadShared(gr(0, 1)); ok || err != nil || val != nil {
		t.Fatalf("Protocol B read behind a pending version = (%q, %v, %v), want would-wait", val, ok, err)
	}
	if val, ok, err := ul.TryReadShared(gr(0, 1)); !ok || err != nil || val != nil {
		t.Fatalf("Protocol A read = (%q, %v, %v), want the committed nothing", val, ok, err)
	}
	write(t, low, gr(1, 2), "own")
	if val, ok, err := ul.TryReadShared(gr(1, 2)); !ok || err != nil || string(val) != "own" {
		t.Fatalf("own-write read = (%q, %v, %v)", val, ok, err)
	}
	after := e.Stats()
	if n := e.Store().Stats().ReadRegistrations; n != regs {
		t.Fatalf("read registrations %d -> %d: a would-wait or Protocol A read registered", regs, n)
	}
	if after.BlockedReads != stats.BlockedReads || after.Reads != stats.Reads+2 {
		t.Fatalf("blocked reads %d -> %d, reads %d -> %d: want 0 blocked and the 2 completed reads",
			stats.BlockedReads, after.BlockedReads, stats.Reads, after.Reads)
	}

	mustCommit(t, w)
	if val, ok, err := ur.TryReadShared(gr(0, 1)); !ok || err != nil || string(val) != "pending" {
		t.Fatalf("Protocol B read after the commit = (%q, %v, %v)", val, ok, err)
	}
	if n := e.Store().Stats().ReadRegistrations; n != regs+1 {
		t.Fatalf("read registrations %d -> %d, want the completed Protocol B read's one", regs, n)
	}
	mustCommit(t, r)
	mustCommit(t, low)
}

// TestCommitAsyncWithoutLog: without a log there is nothing to wait for,
// so CommitAsync returns no wait and the commit is visible at once; a
// second commit reports the finished transaction.
func TestCommitAsyncWithoutLog(t *testing.T) {
	e := newEngine(t, twoLevel(t), nil)
	tx, _ := e.Begin(0)
	write(t, tx, gr(0, 1), "v")
	u := tx.(*updateTxn)
	wait, err := u.CommitAsync()
	if wait != nil || err != nil {
		t.Fatalf("CommitAsync without a log = (%v, %v), want (nil, nil)", wait != nil, err)
	}
	if got, _ := readLatest(t, e, 0, gr(0, 1)); got != "v" {
		t.Fatalf("after CommitAsync the store reads %q", got)
	}
	if wait, err := u.CommitAsync(); wait != nil || !errors.Is(err, cc.ErrTxnDone) {
		t.Fatalf("second CommitAsync = (%v, %v), want ErrTxnDone", wait != nil, err)
	}
}
