package mvstore

import (
	"errors"
	"sync"
	"testing"

	"hdd/internal/schema"
	"hdd/internal/vclock"
)

func g(seg, key int) schema.GranuleID {
	return schema.GranuleID{Segment: schema.SegmentID(seg), Key: uint64(key)}
}

func TestInstallCommitRead(t *testing.T) {
	s := New()
	gr := g(0, 1)
	if err := s.InstallPending(gr, 10, []byte("a")); err != nil {
		t.Fatal(err)
	}
	// Pending versions are invisible.
	if _, _, ok := s.ReadCommittedBefore(gr, 100); ok {
		t.Fatal("pending version visible")
	}
	s.Commit(gr, 10)
	v, ts, ok := s.ReadCommittedBefore(gr, 100)
	if !ok || ts != 10 || string(v) != "a" {
		t.Fatalf("read = %q,%d,%v", v, ts, ok)
	}
	// Bound is exclusive.
	if _, _, ok := s.ReadCommittedBefore(gr, 10); ok {
		t.Fatal("bound should be exclusive")
	}
}

func TestVersionOrderingAndSelection(t *testing.T) {
	s := New()
	gr := g(0, 2)
	for _, ts := range []vclock.Time{30, 10, 20} {
		if err := s.InstallPending(gr, ts, []byte{byte(ts)}); err != nil {
			t.Fatal(err)
		}
		s.Commit(gr, ts)
	}
	for _, c := range []struct {
		bound vclock.Time
		want  vclock.Time
		ok    bool
	}{{5, 0, false}, {11, 10, true}, {25, 20, true}, {100, 30, true}} {
		v, ts, ok := s.ReadCommittedBefore(gr, c.bound)
		if ok != c.ok || (ok && ts != c.want) {
			t.Fatalf("bound %d: got %d,%v want %d,%v", c.bound, ts, ok, c.want, c.ok)
		}
		if ok && v[0] != byte(c.want) {
			t.Fatalf("bound %d: wrong value", c.bound)
		}
	}
}

func TestDuplicateVersionRejected(t *testing.T) {
	s := New()
	gr := g(0, 3)
	if err := s.InstallPending(gr, 10, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.InstallPending(gr, 10, nil); !errors.Is(err, ErrVersionExists) {
		t.Fatalf("err = %v, want ErrVersionExists", err)
	}
}

func TestAbortRemovesVersion(t *testing.T) {
	s := New()
	gr := g(0, 4)
	_ = s.InstallPending(gr, 10, []byte("x"))
	s.Abort(gr, 10)
	if _, _, ok := s.ReadCommittedBefore(gr, 100); ok {
		t.Fatal("aborted version visible")
	}
	if got := s.Stats().VersionsAborted; got != 1 {
		t.Fatalf("VersionsAborted = %d", got)
	}
	// Aborting twice is a no-op.
	s.Abort(gr, 10)
}

func TestReadRegisteredWaitsForPending(t *testing.T) {
	s := New()
	gr := g(0, 5)
	_ = s.InstallPending(gr, 10, []byte("old"))
	s.Commit(gr, 10)
	_ = s.InstallPending(gr, 20, []byte("new"))

	// Reader at 30: latest below bound is the pending v20 → must wait.
	_, _, _, wait := s.ReadRegistered(gr, 30, 30)
	if wait == nil {
		t.Fatal("expected wait for pending version")
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-wait
	}()
	s.Commit(gr, 20)
	wg.Wait()
	v, ts, ok, wait2 := s.ReadRegistered(gr, 30, 30)
	if wait2 != nil || !ok || ts != 20 || string(v) != "new" {
		t.Fatalf("after commit: %q,%d,%v", v, ts, ok)
	}

	// Reader at 15 is not blocked by the pending v20 (above its bound).
	_ = s.InstallPending(gr, 40, []byte("newer"))
	v, ts, ok, wait3 := s.ReadRegistered(gr, 15, 15)
	if wait3 != nil || !ok || ts != 10 || string(v) != "old" {
		t.Fatalf("bounded read: %q,%d,%v waited=%v", v, ts, ok, wait3 != nil)
	}
}

func TestReadRegisteredAbortedRetry(t *testing.T) {
	s := New()
	gr := g(0, 6)
	_ = s.InstallPending(gr, 10, []byte("base"))
	s.Commit(gr, 10)
	_ = s.InstallPending(gr, 20, []byte("doomed"))
	_, _, _, wait := s.ReadRegistered(gr, 30, 30)
	if wait == nil {
		t.Fatal("expected wait")
	}
	s.Abort(gr, 20)
	<-wait
	v, ts, ok, w2 := s.ReadRegistered(gr, 30, 30)
	if w2 != nil || !ok || ts != 10 || string(v) != "base" {
		t.Fatalf("retry read = %q,%d,%v", v, ts, ok)
	}
}

func TestInstallCheckedReadInvalidation(t *testing.T) {
	s := New()
	gr := g(0, 7)
	_ = s.InstallPending(gr, 10, []byte("v10"))
	s.Commit(gr, 10)
	// Reader at 30 reads v10, registering rts 30.
	if _, _, ok, _ := s.ReadRegistered(gr, 30, 30); !ok {
		t.Fatal("read failed")
	}
	// A writer at 20 would invalidate that read: rejected.
	err := s.InstallChecked(gr, 20, []byte("v20"))
	var rej *RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("err = %v, want RejectedError", err)
	}
	// A writer at 40 is fine.
	if err := s.InstallChecked(gr, 40, []byte("v40")); err != nil {
		t.Fatal(err)
	}
}

func TestInstallCheckedNewerVersionExists(t *testing.T) {
	s := New()
	gr := g(0, 8)
	_ = s.InstallPending(gr, 30, nil)
	s.Commit(gr, 30)
	err := s.InstallChecked(gr, 20, nil)
	var rej *RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("err = %v, want RejectedError (newer version)", err)
	}
	if err := s.InstallChecked(gr, 30, nil); !errors.Is(err, ErrVersionExists) {
		t.Fatalf("err = %v, want ErrVersionExists", err)
	}
}

// TestWriteCheck runs the Protocol B write check through InstallChecked:
// it admits a write to an empty chain, rejects one below a registered read
// without installing it, and admits one above that read.
func TestWriteCheck(t *testing.T) {
	s := New()
	gr := g(0, 9)
	if err := s.InstallChecked(gr, 10, nil); err != nil {
		t.Fatalf("InstallChecked on empty chain: %v", err)
	}
	s.Commit(gr, 10)
	if _, _, ok, _ := s.ReadRegistered(gr, 25, 25); !ok {
		t.Fatal("read failed")
	}
	var rej *RejectedError
	if err := s.InstallChecked(gr, 20, nil); !errors.As(err, &rej) {
		t.Fatalf("InstallChecked(20) = %v, want a rejection below the registered read", err)
	}
	if n := len(s.Versions(gr)); n != 1 {
		t.Fatalf("a rejected write left %d versions, want 1", n)
	}
	if err := s.InstallChecked(gr, 30, nil); err != nil {
		t.Fatalf("InstallChecked(30): %v", err)
	}
}

func TestUpdatePending(t *testing.T) {
	s := New()
	gr := g(0, 10)
	_ = s.InstallPending(gr, 10, []byte("a"))
	s.UpdatePending(gr, 10, []byte("b"))
	s.Commit(gr, 10)
	v, _, _ := s.ReadCommittedBefore(gr, 100)
	if string(v) != "b" {
		t.Fatalf("value = %q, want b", v)
	}
}

func TestUpdatePendingMissingPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.UpdatePending(g(0, 11), 10, nil)
}

func TestCommitAtAndReadAsOf(t *testing.T) {
	s := New()
	gr := g(0, 12)
	_ = s.InstallPending(gr, 10, []byte("a"))
	s.CommitAt(gr, 10, 50)
	_ = s.InstallPending(gr, 20, []byte("b"))
	s.CommitAt(gr, 20, 60)
	if v, _, ok := s.ReadCommittedAsOf(gr, 55); !ok || string(v) != "a" {
		t.Fatalf("asOf 55 = %q,%v", v, ok)
	}
	if v, _, ok := s.ReadCommittedAsOf(gr, 61); !ok || string(v) != "b" {
		t.Fatalf("asOf 61 = %q,%v", v, ok)
	}
	if _, _, ok := s.ReadCommittedAsOf(gr, 50); ok {
		t.Fatal("asOf bound should be exclusive")
	}
	// Pending versions are skipped.
	_ = s.InstallPending(gr, 30, []byte("c"))
	if v, _, ok := s.ReadCommittedAsOf(gr, 100); !ok || string(v) != "b" {
		t.Fatalf("asOf with pending = %q,%v", v, ok)
	}
}

func TestGC(t *testing.T) {
	s := New()
	gr := g(0, 13)
	for ts := vclock.Time(10); ts <= 50; ts += 10 {
		_ = s.InstallPending(gr, ts, []byte{byte(ts)})
		s.Commit(gr, ts)
	}
	if n := s.TotalVersions(); n != 5 {
		t.Fatalf("TotalVersions = %d", n)
	}
	// Watermark 35: versions 10, 20 are droppable; 30 is the latest
	// committed below the watermark and must survive.
	pruned := s.GC(35)
	if pruned != 2 {
		t.Fatalf("pruned = %d, want 2", pruned)
	}
	if v, ts, ok := s.ReadCommittedBefore(gr, 35); !ok || ts != 30 || v[0] != 30 {
		t.Fatalf("post-GC read at watermark = %d,%v", ts, ok)
	}
	if v, ts, ok := s.ReadCommittedBefore(gr, 100); !ok || ts != 50 || v[0] != 50 {
		t.Fatalf("post-GC latest = %d,%v", ts, ok)
	}
	// GC below everything is a no-op.
	if n := s.GC(5); n != 0 {
		t.Fatalf("GC(5) pruned %d", n)
	}
}

func TestGCKeepsPending(t *testing.T) {
	s := New()
	gr := g(0, 14)
	_ = s.InstallPending(gr, 10, nil)
	s.Commit(gr, 10)
	_ = s.InstallPending(gr, 20, nil)
	s.Commit(gr, 20)
	_ = s.InstallPending(gr, 25, nil) // pending below watermark: broken
	// watermark, but GC must stay safe
	pruned := s.GC(30)
	_ = pruned
	vs := s.Versions(gr)
	for _, v := range vs {
		if v.TS == 25 && v.State != Pending {
			t.Fatal("pending version corrupted")
		}
	}
	// The pending version must still be there.
	found := false
	for _, v := range vs {
		if v.TS == 25 {
			found = true
		}
	}
	if !found {
		t.Fatal("pending version pruned")
	}
}

func TestValueIsolation(t *testing.T) {
	// The store keeps the slice it is given and never writes to it: the
	// engine's one copy at its cc.Txn.Write boundary is the version's value
	// (hdd.TestWriteBuffersAreCallerOwned checks that copy in every engine).
	s := New()
	gr := g(0, 15)
	buf := []byte("mutable")
	_ = s.InstallPending(gr, 10, buf)
	s.Commit(gr, 10)
	v, _, _ := s.ReadCommittedBefore(gr, 100)
	if &v[0] != &buf[0] || string(v) != "mutable" {
		t.Fatalf("stored value %q is not the installed slice %q", v, buf)
	}
	// Reads are zero-copy by contract: the slice aliases immutable store
	// memory (callers must not modify it; engines copy at the cc.Txn
	// boundary). Overwriting the writer's pending version must never touch
	// bytes a reader already holds — UpdatePending swaps the slice.
	gr2 := g(0, 115)
	_ = s.InstallPending(gr2, 10, []byte("first"))
	s.Commit(gr2, 10)
	v2, _, _ := s.ReadCommittedBefore(gr2, 100)
	_ = s.InstallPending(gr2, 20, []byte("initial"))
	s.UpdatePending(gr2, 20, []byte("rewrite"))
	s.Commit(gr2, 20)
	if string(v2) != "first" {
		t.Fatalf("held read mutated by later writes: %q", v2)
	}
}

func TestStatsCounters(t *testing.T) {
	s := New()
	gr := g(0, 16)
	_ = s.InstallPending(gr, 10, nil)
	s.Commit(gr, 10)
	_, _, _, _ = s.ReadRegistered(gr, 20, 20)
	st := s.Stats()
	if st.VersionsInstalled != 1 || st.ReadRegistrations != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	s := New()
	clock := vclock.NewClock()
	const granules = 32
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				gr := g(0, (w*31+i)%granules)
				ts := clock.Tick()
				if err := s.InstallChecked(gr, ts, []byte{byte(i)}); err == nil {
					if i%7 == 0 {
						s.Abort(gr, ts)
					} else {
						s.Commit(gr, ts)
					}
				}
				s.ReadCommittedBefore(gr, clock.Tick())
				s.ReadRegistered(gr, ts, ts)
			}
		}(w)
	}
	wg.Wait()
	// Every chain must be ordered and contain no pending versions.
	for k := 0; k < granules; k++ {
		vs := s.Versions(g(0, k))
		for i := range vs {
			if vs[i].State == Pending {
				t.Fatalf("granule %d: pending version leaked", k)
			}
			if i > 0 && vs[i-1].TS >= vs[i].TS {
				t.Fatalf("granule %d: chain out of order", k)
			}
		}
	}
}

// TestTailCommitZeroAllocs pins the commit of a chain's tail version at
// zero allocations: it is one atomic state store into the published array
// plus, the first time the chain holds two versions, a lock-free push onto
// the prune queue. A regression here (republishing on commit, a boxed
// queue entry) is the per-commit O(chain) cost this layout removed.
func TestTailCommitZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const runs = 200
	s := New()
	for k := 0; k <= runs; k++ { // AllocsPerRun makes one warm-up call
		_ = s.InstallPending(g(0, k), 1, []byte("old"))
		s.Commit(g(0, k), 1)
		_ = s.InstallPending(g(0, k), 2, []byte("new"))
	}
	k := 0
	if allocs := testing.AllocsPerRun(runs, func() {
		s.Commit(g(0, k), 2)
		k++
	}); allocs != 0 {
		t.Errorf("Commit of a tail version: %v allocs/op, want 0", allocs)
	}
	if q := queuedChains(s); len(q) != runs+1 {
		t.Errorf("%d chains queued, want %d", len(q), runs+1)
	}
}
