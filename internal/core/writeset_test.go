package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hdd/internal/cc"
	"hdd/internal/schema"
	"hdd/internal/wal"
)

// largeWriteSet writes n granules of segment 0 in a scrambled order,
// rewrites every seventh of them and reads its own writes back. It
// returns the granules in first-write order and each one's final value.
func largeWriteSet(t *testing.T, txn cc.Txn, n int) ([]schema.GranuleID, map[schema.GranuleID]string) {
	t.Helper()
	order := make([]schema.GranuleID, n)
	final := make(map[schema.GranuleID]string, n)
	for i := range order {
		g := gr(0, i*1031%n) // 1031 is odd, so this permutes 0..n-1 for n a power of two
		order[i] = g
		final[g] = fmt.Sprintf("first-%d", i)
		write(t, txn, g, final[g])
	}
	for i := 0; i < n; i += 7 {
		g := order[i]
		final[g] = fmt.Sprintf("rewrite-%d", i)
		write(t, txn, g, final[g])
	}
	for i := 0; i < n; i += 3 {
		if got := read(t, txn, order[i]); got != final[order[i]] {
			t.Fatalf("own read of %v = %q, want %q", order[i], got, final[order[i]])
		}
	}
	return order, final
}

// TestDurableWriteSetInFirstWriteOrder commits a 4 096-granule write set
// with rewrites. The log must hold each granule exactly once, with its
// final value, in first-write order, and recovery must restore it.
func TestDurableWriteSetInFirstWriteOrder(t *testing.T) {
	const n = 4096
	part := twoLevel(t)
	dir := t.TempDir()
	e := durableEngine(t, part, dir)
	txn, err := e.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	order, final := largeWriteSet(t, txn, n)
	mustCommit(t, txn)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	var logged []wal.Record
	commits := 0
	_, _, torn, err := wal.Replay(f, func(rec wal.Record) error {
		switch {
		case rec.Txn != txn.ID():
			return fmt.Errorf("record of transaction %d, want only %d", rec.Txn, txn.ID())
		case rec.Kind == wal.KindWrite:
			logged = append(logged, rec)
		case rec.Kind == wal.KindCommit:
			commits++
		default:
			return fmt.Errorf("the log holds a %v record", rec.Kind)
		}
		return nil
	})
	f.Close()
	if err != nil || torn {
		t.Fatalf("replay: %v (torn %v)", err, torn)
	}
	if commits != 1 || len(logged) != n {
		t.Fatalf("log holds %d writes and %d commit markers, want %d and 1", len(logged), commits, n)
	}
	for i, rec := range logged {
		g := schema.GranuleID{Segment: rec.Seg, Key: rec.Key}
		if g != order[i] || string(rec.Value) != final[g] {
			t.Fatalf("write record %d is %v = %q, want %v = %q", i, g, rec.Value, order[i], final[order[i]])
		}
	}

	e2 := durableEngine(t, part, dir)
	defer e2.Close()
	for _, g := range order {
		if v, ok := readLatest(t, e2, 0, g); !ok || v != final[g] {
			t.Fatalf("recovered %v = (%q, %v), want %q", g, v, ok, final[g])
		}
	}
}

// TestUncommittedWriteSetLeavesNoVersion aborts the same write set: no
// pending version may be left behind in any of its chains.
func TestUncommittedWriteSetLeavesNoVersion(t *testing.T) {
	const n = 4096
	e := newEngine(t, twoLevel(t), nil)
	txn, err := e.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	order, _ := largeWriteSet(t, txn, n)
	if err := txn.Abort(); err != nil {
		t.Fatal(err)
	}
	for _, g := range order {
		if vs := e.Store().Versions(g); len(vs) != 0 {
			t.Fatalf("%v holds %+v after the abort, want no version", g, vs)
		}
	}
	if st := e.Store().Stats(); st.VersionsAborted != n {
		t.Fatalf("%d versions aborted, want %d", st.VersionsAborted, n)
	}
}

// blockedRead starts a Protocol B read of g in reader, which must wait
// behind a pending version, and returns once the read has made its cancel
// channel and counted itself blocked. The channel delivers its outcome.
func blockedRead(t *testing.T, e *Engine, reader cc.Txn, g schema.GranuleID) <-chan error {
	t.Helper()
	got := make(chan error, 1)
	go func() {
		_, err := reader.Read(g)
		got <- err
	}()
	waitFor(t, 5*time.Second, func() bool { return e.Stats().BlockedReads == 1 }, "the read to block")
	return got
}

// awaitErr waits for a blocked read's outcome.
func awaitErr(t *testing.T, got <-chan error) error {
	t.Helper()
	select {
	case err := <-got:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("the blocked read did not return")
		return nil
	}
}

// TestReapForceAbortsWithOnDemandCancel reaps an update transaction that
// never blocked, whose cancel channel was never made, and one blocked in
// a Protocol B read, which made its channel: the reap must wake the
// second with the reaper's error and leave both finished.
func TestReapForceAbortsWithOnDemandCancel(t *testing.T) {
	e := newEngine(t, twoLevel(t), nil)
	writer, err := e.Begin(0) // no deadline: the reaper leaves it alone
	if err != nil {
		t.Fatal(err)
	}
	write(t, writer, gr(0, 1), "pending")

	idle := beginWithTimeout(t, e, 0, time.Hour)
	write(t, idle, gr(0, 2), "idle")
	reader := beginWithTimeout(t, e, 0, time.Hour)
	got := blockedRead(t, e, reader, gr(0, 1))
	if n := e.ReapExpired(time.Now().Add(2 * time.Hour)); n != 2 {
		t.Fatalf("ReapExpired = %d, want 2", n)
	}
	var ae *cc.AbortError
	if err := awaitErr(t, got); !errors.As(err, &ae) || ae.Reason != cc.ReasonTimedOut {
		t.Fatalf("reaped blocked read returned %v, want a %s abort", err, cc.ReasonTimedOut)
	}
	for _, txn := range []cc.Txn{idle, reader} {
		if err := txn.Write(gr(0, 3), []byte("late")); !errors.As(err, &ae) || ae.Reason != cc.ReasonTimedOut {
			t.Fatalf("write after the reap = %v, want the reaper's abort", err)
		}
	}
	if vs := e.Store().Versions(gr(0, 2)); len(vs) != 0 {
		t.Fatalf("the reaped transaction left %+v", vs)
	}
	mustCommit(t, writer)
}

// TestCloseFinishesTxnsWithOnDemandCancel closes the engine under an
// update transaction that never blocked and one blocked in a Protocol B
// read: the read returns cc.ErrEngineClosed and both abort cleanly.
func TestCloseFinishesTxnsWithOnDemandCancel(t *testing.T) {
	e, err := NewEngine(Config{Partition: twoLevel(t), WallInterval: 4})
	if err != nil {
		t.Fatal(err)
	}
	writer, err := e.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	write(t, writer, gr(0, 1), "pending")
	idle, err := e.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	write(t, idle, gr(0, 2), "idle")
	reader, err := e.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	got := blockedRead(t, e, reader, gr(0, 1))
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := awaitErr(t, got); !errors.Is(err, cc.ErrEngineClosed) {
		t.Fatalf("blocked read after Close returned %v, want ErrEngineClosed", err)
	}
	for _, txn := range []cc.Txn{writer, idle, reader} {
		if err := txn.Abort(); err != nil {
			t.Fatal(err)
		}
	}
	if n := e.ActiveTxns(); n != 0 {
		t.Fatalf("%d transactions still live after Close and Abort", n)
	}
}
