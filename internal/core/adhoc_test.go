package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hdd/internal/cc"
	"hdd/internal/sched"
	"hdd/internal/schema"
)

// TestAdHocIllegalPatternRuns: an ad-hoc transaction reads two
// incomparable branches (mid and branch) — a pattern the partition forbids
// every declared class — and still commits correctly.
func TestAdHocIllegalPatternRuns(t *testing.T) {
	e := newEngine(t, branching(t), nil)
	// Populate both branches.
	w1, _ := e.Begin(1)
	write(t, w1, gr(1, 1), "left")
	mustCommit(t, w1)
	w3, _ := e.Begin(3)
	write(t, w3, gr(3, 1), "right")
	mustCommit(t, w3)

	ah, err := e.BeginAdHoc(2)
	if err != nil {
		t.Fatal(err)
	}
	l := read(t, ah, gr(1, 1))
	r := read(t, ah, gr(3, 1))
	if l != "left" || r != "right" {
		t.Fatalf("ad-hoc reads = %q %q", l, r)
	}
	write(t, ah, gr(2, 1), l+"+"+r)
	mustCommit(t, ah)

	// Its write is visible to later transactions of lower classes... no
	// class is below 2; check via a fresh ad-hoc reader.
	ah2, err := e.BeginAdHoc(2)
	if err != nil {
		t.Fatal(err)
	}
	if got := read(t, ah2, gr(2, 1)); got != "left+right" {
		t.Fatalf("ad-hoc write invisible: %q", got)
	}
	mustCommit(t, ah2)
}

// TestAdHocDrainsInFlight: BeginAdHoc waits for in-flight update
// transactions and holds off new ones until it finishes.
func TestAdHocDrainsInFlight(t *testing.T) {
	e := newEngine(t, branching(t), nil)
	inflight, _ := e.Begin(0)
	write(t, inflight, gr(0, 5), "inflight")

	adhocStarted := make(chan struct{})
	adhocGot := make(chan string)
	go func() {
		close(adhocStarted)
		ah, err := e.BeginAdHoc(2)
		if err != nil {
			panic(err)
		}
		v, _ := ah.Read(gr(0, 5))
		_ = ah.Commit()
		adhocGot <- string(v)
	}()
	<-adhocStarted
	select {
	case <-adhocGot:
		t.Fatal("ad-hoc began while an update transaction was in flight")
	case <-time.After(30 * time.Millisecond):
	}
	mustCommit(t, inflight)
	// Now the ad-hoc proceeds and, having drained, sees the commit.
	if got := <-adhocGot; got != "inflight" {
		t.Fatalf("ad-hoc read %q, want inflight (solo run sees all commits)", got)
	}
}

func TestAdHocWriteOutsideDeclaredSegment(t *testing.T) {
	e := newEngine(t, branching(t), nil)
	ah, err := e.BeginAdHoc(2)
	if err != nil {
		t.Fatal(err)
	}
	err = ah.Write(gr(1, 1), []byte("x"))
	if !cc.IsAbort(err) || cc.AbortReason(err) != cc.ReasonClassViolation {
		t.Fatalf("err = %v", err)
	}
	// The gate must have been released by the abort: a normal txn begins.
	tx, _ := e.Begin(0)
	mustCommit(t, tx)
}

func TestAdHocUnknownSegment(t *testing.T) {
	e := newEngine(t, branching(t), nil)
	if _, err := e.BeginAdHoc(99); err == nil {
		t.Fatal("expected error")
	}
}

// TestAdHocSerializableUnderLoad: ad-hoc transactions mixed into the
// random workload keep the schedule serializable.
func TestAdHocSerializableUnderLoad(t *testing.T) {
	rec := sched.NewRecorder()
	e := newEngine(t, branching(t), rec)
	var wg sync.WaitGroup
	var adhocs atomic.Int64
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(c) * 13))
			for i := 0; i < 40; i++ {
				if r.Intn(12) == 0 {
					ah, err := e.BeginAdHoc(schema.SegmentID(2))
					if err != nil {
						panic(err)
					}
					// Illegal-for-the-partition pattern: read both
					// branches, write segment 2.
					if _, err := ah.Read(gr(1, r.Intn(8))); err != nil {
						panic(err)
					}
					if _, err := ah.Read(gr(3, r.Intn(8))); err != nil {
						panic(err)
					}
					g := gr(2, r.Intn(8))
					old, err := ah.Read(g)
					if err != nil {
						panic(err)
					}
					if err := ah.Write(g, append(old, 7)); err != nil {
						_ = ah.Abort()
						continue
					}
					if err := ah.Commit(); err == nil {
						adhocs.Add(1)
					}
				} else {
					runRandomTxn(e, r)
				}
			}
		}(c)
	}
	wg.Wait()
	if adhocs.Load() == 0 {
		t.Fatal("no ad-hoc transactions committed; test vacuous")
	}
	g := rec.Build()
	if !g.Serializable() {
		t.Fatalf("schedule with ad-hoc transactions not serializable:\n%s", g.ExplainCycle())
	}
}

// TestAdHocCommitsRunGC: ad-hoc commits count toward GCEveryCommits exactly
// as ordinary update commits do.
func TestAdHocCommitsRunGC(t *testing.T) {
	e, err := NewEngine(Config{Partition: branching(t), WallInterval: 8, GCEveryCommits: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 4; i++ {
		ah, err := e.BeginAdHocFor(2, 1, 3)
		if err != nil {
			t.Fatal(err)
		}
		read(t, ah, gr(3, 1))
		write(t, ah, gr(2, 1), "v")
		mustCommit(t, ah)
	}
	if e.GCRuns() == 0 {
		t.Fatal("ad-hoc commits never triggered automatic GC")
	}
}

// TestAdHocDoubleFinish: operations after commit fail cleanly, and Abort
// after Commit is a no-op (the gate is released exactly once).
func TestAdHocDoubleFinish(t *testing.T) {
	e := newEngine(t, branching(t), nil)
	ah, err := e.BeginAdHoc(2)
	if err != nil {
		t.Fatal(err)
	}
	mustCommit(t, ah)
	if err := ah.Commit(); err != cc.ErrTxnDone {
		t.Fatalf("double commit = %v", err)
	}
	if err := ah.Abort(); err != nil {
		t.Fatalf("abort after commit = %v", err)
	}
	if _, err := ah.Read(gr(0, 1)); err != cc.ErrTxnDone {
		t.Fatalf("read after commit = %v", err)
	}
	// Gate released exactly once: another ad-hoc can begin.
	ah2, err := e.BeginAdHoc(2)
	if err != nil {
		t.Fatal(err)
	}
	_ = ah2.Abort()
}
