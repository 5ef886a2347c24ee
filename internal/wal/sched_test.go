package wal

import (
	"testing"
	"time"
)

// Deterministic tests of sched alone: every event carries its own now, so
// no clock and no goroutine is involved.

// holdingSched returns a sched holding its open batch at the time it also
// returns: a cohort of four shared a 10 ms flush, was acknowledged 3 ms
// before, and one of the four is back; the other three are due within the
// 4 ms return estimate.
func holdingSched(t *testing.T) (*sched, time.Time) {
	t.Helper()
	s := &sched{ret: 4 * time.Millisecond, dev: time.Millisecond}
	now := time.Unix(1000, 0)
	for i := 0; i < 4; i++ {
		s.append(now, true, false)
	}
	if d := s.decide(now); d != 0 {
		t.Fatalf("a first cohort with nobody due was held for %v, want flushed at once", d)
	}
	s.start(now)
	s.synced(10 * time.Millisecond)
	now = now.Add(10 * time.Millisecond)
	s.resolved(now, 4)
	now = now.Add(3 * time.Millisecond)
	s.append(now, true, false)
	if d := s.decide(now); d <= 0 || d == forever {
		t.Fatalf("one of a cohort of four back: decide = %v, want a hold", d)
	}
	return s, now
}

// TestHoldEndsOnSync: a Sync ends a cohort hold at once, and the flush
// reports the hold as ended before its bound.
func TestHoldEndsOnSync(t *testing.T) {
	s, now := holdingSched(t)
	now = now.Add(time.Millisecond)
	s.sync = true // what Log.Sync sets before it kicks the flusher
	if d := s.decide(now); d != 0 {
		t.Fatalf("decide after a Sync = %v, want 0 (flush now)", d)
	}
	if fl := s.start(now); fl.Hold != HoldReady || fl.Held != time.Millisecond || fl.Waiters != 1 {
		t.Errorf("flush = %+v, want the one waiter, held 1ms, outcome HoldReady", fl)
	}
}

// TestHoldEndsOnByteThreshold: a record that fills the batch past
// flushBytes kicks the flusher and ends a cohort hold at once.
func TestHoldEndsOnByteThreshold(t *testing.T) {
	s, now := holdingSched(t)
	now = now.Add(time.Millisecond)
	if !s.append(now, false, true) {
		t.Fatal("a record past flushBytes did not kick the flusher")
	}
	if d := s.decide(now); d != 0 {
		t.Fatalf("decide past flushBytes = %v, want 0 (flush now)", d)
	}
	if fl := s.start(now); fl.Hold != HoldReady || fl.Waiters != 1 {
		t.Errorf("flush = %+v, want the one waiter, outcome HoldReady", fl)
	}
}
