package cc

import (
	"errors"
	"fmt"
	"testing"

	"hdd/internal/schema"
)

func TestAbortErrorChain(t *testing.T) {
	inner := errors.New("inner cause")
	err := fmt.Errorf("wrapped: %w", &AbortError{Reason: ReasonDeadlock, Err: inner})
	if !IsAbort(err) {
		t.Fatal("IsAbort should see through wrapping")
	}
	if AbortReason(err) != ReasonDeadlock {
		t.Fatalf("AbortReason = %q", AbortReason(err))
	}
	var ae *AbortError
	if !errors.As(err, &ae) || !errors.Is(err, inner) {
		t.Fatal("unwrap chain broken")
	}
}

func TestAbortErrorMessages(t *testing.T) {
	e1 := &AbortError{Reason: ReasonWriteRejected}
	if e1.Error() == "" {
		t.Fatal("empty message")
	}
	e2 := &AbortError{Reason: ReasonUserAbort, Err: errors.New("because")}
	if e2.Error() == e1.Error() {
		t.Fatal("cause not included")
	}
}

func TestIsAbortNegative(t *testing.T) {
	if IsAbort(nil) || IsAbort(errors.New("plain")) || IsAbort(ErrTxnDone) {
		t.Fatal("false positive")
	}
	if AbortReason(errors.New("plain")) != "" {
		t.Fatal("reason on non-abort")
	}
}

func TestCountersSnapshotAndSub(t *testing.T) {
	var c Counters
	c.Begins.Add(5)
	c.Commits.Add(4)
	c.Aborts.Add(1)
	c.Reads.Add(30)
	c.Writes.Add(10)
	c.ReadRegistrations.Add(7)
	c.BlockedReads.Add(2)
	c.BlockedWrites.Add(3)
	c.RejectedReads.Add(1)
	c.RejectedWrites.Add(2)
	c.Deadlocks.Add(1)

	s1 := c.Snapshot()
	if s1.Begins != 5 || s1.Reads != 30 || s1.Deadlocks != 1 {
		t.Fatalf("snapshot = %+v", s1)
	}
	c.Reads.Add(10)
	s2 := c.Snapshot()
	d := s2.Sub(s1)
	if d.Reads != 10 || d.Begins != 0 || d.Deadlocks != 0 {
		t.Fatalf("delta = %+v", d)
	}
}

func TestNopRecorderIsSilent(t *testing.T) {
	var r Recorder = NopRecorder{}
	g := schema.GranuleID{Segment: 0, Key: 1}
	r.RecordBegin(1, 0, false)
	r.RecordRead(1, g, 0, false)
	r.RecordWrite(1, g, 2)
	r.RecordCommit(1, 3)
	r.RecordAbort(2, 4)
}
