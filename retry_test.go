package hdd

import (
	"context"

	"errors"
	"fmt"
	"hdd/internal/cc"
	"slices"
	"testing"
	"time"
)

func retryPartition(t *testing.T) *Partition {
	t.Helper()
	p, err := NewPartition(
		[]string{"upper", "lower"},
		[]ClassSpec{
			{Name: "upper-writer", Writes: 0},
			{Name: "lower-writer", Writes: 1, Reads: []SegmentID{0}},
		})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func retryEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := NewEngine(Config{Partition: retryPartition(t), WallInterval: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Close() })
	return e
}

// noSleep installs a Sleep spy so tests never actually wait.
func noSleep(slept *[]time.Duration) func(time.Duration) {
	return func(d time.Duration) { *slept = append(*slept, d) }
}

func TestRunCommitsFirstTry(t *testing.T) {
	e := retryEngine(t)
	g := GranuleID{Segment: 0, Key: 1}
	var slept []time.Duration
	err := Run(e, 0, func(txn Txn) error {
		return txn.Write(g, []byte("v1"))
	}, RetryPolicy{Sleep: noSleep(&slept)})
	if err != nil {
		t.Fatal(err)
	}
	if len(slept) != 0 {
		t.Fatalf("slept %v on a first-try commit", slept)
	}
	// Committed and visible.
	var got []byte
	err = Run(e, 0, func(txn Txn) error {
		v, err := txn.Read(g)
		got = v
		return err
	}, RetryPolicy{Sleep: noSleep(&slept)})
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "v1" {
		t.Fatalf("read %q, want %q", got, "v1")
	}
}

// TestRunRetriesAfterAbort provokes a real engine abort on the first
// attempt: a younger transaction commits a version of the granule after the
// Run transaction began, so the Run transaction's MVTO write is rejected.
// The retry begins a fresh (younger) transaction, which succeeds.
func TestRunRetriesAfterAbort(t *testing.T) {
	e := retryEngine(t)
	g := GranuleID{Segment: 0, Key: 7}
	var slept []time.Duration
	attempts := 0
	err := Run(e, 0, func(txn Txn) error {
		attempts++
		if attempts == 1 {
			// A younger writer commits before this transaction writes.
			young, err := e.Begin(0)
			if err != nil {
				return err
			}
			if err := young.Write(g, []byte("younger")); err != nil {
				return err
			}
			if err := young.Commit(); err != nil {
				return err
			}
		}
		return txn.Write(g, []byte("runner"))
	}, RetryPolicy{Sleep: noSleep(&slept)})
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 2 {
		t.Fatalf("fn ran %d times, want 2", attempts)
	}
	if len(slept) != 1 {
		t.Fatalf("slept %d times, want 1 (one backoff before the retry)", len(slept))
	}
}

func TestRunExhaustsAttempts(t *testing.T) {
	e := retryEngine(t)
	g := GranuleID{Segment: 0, Key: 9}
	var slept []time.Duration
	attempts := 0
	err := Run(e, 0, func(txn Txn) error {
		attempts++
		// Make every attempt lose to a younger committed writer.
		young, err := e.Begin(0)
		if err != nil {
			return err
		}
		if err := young.Write(g, []byte("younger")); err != nil {
			return err
		}
		if err := young.Commit(); err != nil {
			return err
		}
		return txn.Write(g, []byte("runner"))
	}, RetryPolicy{MaxAttempts: 3, Sleep: noSleep(&slept)})
	var rerr *RetryError
	if !errors.As(err, &rerr) {
		t.Fatalf("got %v, want *RetryError", err)
	}
	if rerr.Attempts != 3 || attempts != 3 {
		t.Fatalf("Attempts = %d, fn ran %d times, want 3", rerr.Attempts, attempts)
	}
	if !IsAbort(rerr.Last) {
		t.Fatalf("RetryError.Last = %v, want an abort", rerr.Last)
	}
	if len(slept) != 2 {
		t.Fatalf("slept %d times, want 2", len(slept))
	}
	// Backoff grows (with full jitter each delay is positive and capped).
	for i, d := range slept {
		if d <= 0 {
			t.Fatalf("backoff %d is %v", i, d)
		}
	}
}

func TestRunStopsOnApplicationError(t *testing.T) {
	e := retryEngine(t)
	sentinel := fmt.Errorf("application says no")
	attempts := 0
	var slept []time.Duration
	err := Run(e, 0, func(txn Txn) error {
		attempts++
		return sentinel
	}, RetryPolicy{Sleep: noSleep(&slept)})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want the application error", err)
	}
	if attempts != 1 || len(slept) != 0 {
		t.Fatalf("retried an application error: %d attempts, %d sleeps", attempts, len(slept))
	}
}

func TestRunReadOnly(t *testing.T) {
	e := retryEngine(t)
	g := GranuleID{Segment: 0, Key: 3}
	if err := Run(e, 0, func(txn Txn) error {
		return txn.Write(g, []byte("seen"))
	}, RetryPolicy{}); err != nil {
		t.Fatal(err)
	}
	// Advance the wall past the commit so Protocol C can see it.
	e.Walls().Force()
	var got []byte
	err := Run(e, NoClass, func(txn Txn) error {
		v, err := txn.Read(g)
		got = v
		return err
	}, RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "seen" {
		t.Fatalf("read-only Run read %q, want %q", got, "seen")
	}
}

func TestRunAfterClose(t *testing.T) {
	e, err := NewEngine(Config{Partition: retryPartition(t), WallInterval: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	err = Run(e, 0, func(txn Txn) error { return nil }, RetryPolicy{})
	if !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("Run after Close: %v, want ErrEngineClosed", err)
	}
}

func TestRunRecoversFromPanic(t *testing.T) {
	e := retryEngine(t)
	g := GranuleID{Segment: 0, Key: 5}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate")
			}
		}()
		_ = Run(e, 0, func(txn Txn) error {
			if err := txn.Write(g, []byte("doomed")); err != nil {
				return err
			}
			panic("application bug")
		}, RetryPolicy{})
	}()
	// The panicking attempt was aborted, not leaked: walls still advance
	// (Force would hang forever on a stuck active transaction) and the
	// pending version is gone.
	done := make(chan struct{})
	go func() {
		e.Walls().Force()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("walls wedged: the panicking attempt leaked its transaction")
	}
	var got []byte
	if err := Run(e, 0, func(txn Txn) error {
		v, err := txn.Read(g)
		got = v
		return err
	}, RetryPolicy{}); err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatalf("aborted write visible: %q", got)
	}
}

func TestBackoffBoundsAndJitter(t *testing.T) {
	p := RetryPolicy{BaseDelay: time.Millisecond, MaxDelay: 8 * time.Millisecond, Jitter: -1}.withDefaults()
	// Without jitter the schedule is exactly base<<n capped at max.
	want := []time.Duration{1, 2, 4, 8, 8, 8}
	var slept []time.Duration
	p.Sleep = noSleep(&slept)
	for n := 0; n < len(want); n++ {
		d := backoff(p, nil, n)
		if d != want[n]*time.Millisecond {
			t.Fatalf("backoff(%d) = %v, want %v", n, d, want[n]*time.Millisecond)
		}
	}
}

func TestRunCtxCancelledBeforeFirstAttempt(t *testing.T) {
	e := retryEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := RunCtx(ctx, e, 0, func(txn Txn) error {
		ran = true
		return nil
	}, RetryPolicy{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("fn ran despite a cancelled context")
	}
}

// TestRunCtxCancelDuringBackoff cancels the context while RunCtx is
// sleeping between attempts: the sleep must be interrupted rather than
// running to completion, and the cancellation error surfaces.
func TestRunCtxCancelDuringBackoff(t *testing.T) {
	e := retryEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	attempts := 0
	done := make(chan error, 1)
	go func() {
		done <- RunCtx(ctx, e, 0, func(txn Txn) error {
			attempts++
			if attempts == 1 {
				cancel()
			}
			return &cc.AbortError{Reason: cc.ReasonUserAbort, Err: errors.New("force retry")}
		}, RetryPolicy{MaxAttempts: -1, BaseDelay: time.Hour, Jitter: -1})
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunCtx kept sleeping after the context was cancelled")
	}
	if attempts != 1 {
		t.Fatalf("attempts = %d, want 1", attempts)
	}
}

// TestRetryJitterSchedule pins the backoff delays Run hands to Sleep over
// six aborted attempts, for a fixed Seed and for the Seed 0 default: when
// the RNG is built does not change the schedule.
func TestRetryJitterSchedule(t *testing.T) {
	e := retryEngine(t)
	for _, c := range []struct {
		seed int64
		want []time.Duration
	}{
		{42, []time.Duration{365020, 440326, 642471, 7080788, 310754, 6496584}},
		{0, []time.Duration{725251, 919705, 2540376, 2662774, 1372309, 5408558}},
	} {
		var slept []time.Duration
		attempts := 0
		err := Run(e, 0, func(Txn) error {
			if attempts++; attempts <= 6 {
				return &cc.AbortError{Reason: cc.ReasonWriteRejected}
			}
			return nil
		}, RetryPolicy{MaxAttempts: 7, BaseDelay: time.Millisecond, MaxDelay: 8 * time.Millisecond, Seed: c.seed, Sleep: noSleep(&slept)})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(slept, c.want) {
			t.Errorf("Seed %d: slept %v, want %v", c.seed, slept, c.want)
		}
	}
}
