package core

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"hdd/internal/cc"
)

// TestCloseWakesBlockedRead: a Protocol B read blocked on a pending version
// must not outlive the engine — Close wakes it promptly with
// cc.ErrEngineClosed.
func TestCloseWakesBlockedRead(t *testing.T) {
	e, err := NewEngine(Config{Partition: twoLevel(t), WallInterval: 4})
	if err != nil {
		t.Fatal(err)
	}

	writer, err := e.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	write(t, writer, gr(0, 1), "pending")

	reader, err := e.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	type res struct {
		v   []byte
		err error
	}
	got := make(chan res, 1)
	go func() {
		v, err := reader.Read(gr(0, 1))
		got <- res{v, err}
	}()
	// Let the reader reach its blocked wait before closing.
	time.Sleep(10 * time.Millisecond)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-got:
		if !errors.Is(r.err, cc.ErrEngineClosed) {
			t.Fatalf("blocked read after Close returned (%q, %v), want ErrEngineClosed", r.v, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked read did not return after Close")
	}
}

// TestOperationsAfterClose: Begin in every flavor and operations on
// transactions fail with cc.ErrEngineClosed once the engine is closed, and
// Close is an idempotent no-op the second time.
func TestOperationsAfterClose(t *testing.T) {
	e, err := NewEngine(Config{Partition: twoLevel(t), WallInterval: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal("double Close:", err)
	}

	if _, err := e.Begin(0); !errors.Is(err, cc.ErrEngineClosed) {
		t.Fatalf("Begin after Close: %v", err)
	}
	if _, err := e.BeginReadOnly(); !errors.Is(err, cc.ErrEngineClosed) {
		t.Fatalf("BeginReadOnly after Close: %v", err)
	}
	if _, err := e.BeginReadOnlyOnPath(1); !errors.Is(err, cc.ErrEngineClosed) {
		t.Fatalf("BeginReadOnlyOnPath after Close: %v", err)
	}
	if _, err := e.BeginReadOnlyFor(0); !errors.Is(err, cc.ErrEngineClosed) {
		t.Fatalf("BeginReadOnlyFor after Close: %v", err)
	}
}

// TestCloseFailsLiveTxnOperations: a transaction begun before Close cannot
// read or write afterwards.
func TestCloseFailsLiveTxnOperations(t *testing.T) {
	e, err := NewEngine(Config{Partition: twoLevel(t), WallInterval: 4})
	if err != nil {
		t.Fatal(err)
	}
	txn, err := e.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Read(gr(0, 1)); !errors.Is(err, cc.ErrEngineClosed) {
		t.Fatalf("Read after Close: %v", err)
	}
	if err := txn.Write(gr(0, 1), []byte("x")); !errors.Is(err, cc.ErrEngineClosed) {
		t.Fatalf("Write after Close: %v", err)
	}
}

// TestCloseStopsReaper: the reaper goroutine (and a woken blocked reader)
// exit by the time Close returns — no goroutine leaks.
func TestCloseStopsReaper(t *testing.T) {
	baseline := runtime.NumGoroutine()

	e, err := NewEngine(Config{
		Partition:    twoLevel(t),
		WallInterval: 4,
		TxnTimeout:   time.Minute, // starts the reaper; nobody expires
	})
	if err != nil {
		t.Fatal(err)
	}
	// Park a reader on a pending version so Close has someone to wake.
	writer, err := e.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	write(t, writer, gr(0, 1), "pending")
	reader, err := e.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		_, _ = reader.Read(gr(0, 1))
	}()
	time.Sleep(5 * time.Millisecond)

	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	<-readerDone

	// The reaper is joined inside Close; only scheduler noise can remain.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after Close: %d > baseline %d",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}
