package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"hdd/internal/cc"
	"hdd/internal/obs"
	"hdd/internal/sched"
	"hdd/internal/schema"
)

// twoLevel builds the minimal hierarchy: class 1 writes segment 1 and
// reads segment 0; class 0 writes segment 0.
func twoLevel(t testing.TB) *schema.Partition {
	t.Helper()
	p, err := schema.NewPartition(
		[]string{"upper", "lower"},
		[]schema.ClassSpec{
			{Name: "upper-writer", Writes: 0},
			{Name: "lower-writer", Writes: 1, Reads: []schema.SegmentID{0}},
		})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// branching builds the vee-plus-chain used by wall tests: 0 top; 1 reads
// 0; 2 reads 0,1; 3 reads 0 (side branch).
func branching(t testing.TB) *schema.Partition {
	t.Helper()
	p, err := schema.NewPartition(
		[]string{"top", "mid", "leaf", "branch"},
		[]schema.ClassSpec{
			{Name: "c0", Writes: 0},
			{Name: "c1", Writes: 1, Reads: []schema.SegmentID{0}},
			{Name: "c2", Writes: 2, Reads: []schema.SegmentID{0, 1}},
			{Name: "c3", Writes: 3, Reads: []schema.SegmentID{0}},
		})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func newEngine(t testing.TB, part *schema.Partition, rec cc.Recorder) *Engine {
	t.Helper()
	e, err := NewEngine(Config{Partition: part, Recorder: rec, WallInterval: 8})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func gr(seg, key int) schema.GranuleID {
	return schema.GranuleID{Segment: schema.SegmentID(seg), Key: uint64(key)}
}

func mustCommit(t *testing.T, txn cc.Txn) {
	t.Helper()
	if err := txn.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
}

func write(t *testing.T, txn cc.Txn, g schema.GranuleID, v string) {
	t.Helper()
	if err := txn.Write(g, []byte(v)); err != nil {
		t.Fatalf("write %v: %v", g, err)
	}
}

func read(t *testing.T, txn cc.Txn, g schema.GranuleID) string {
	t.Helper()
	v, err := txn.Read(g)
	if err != nil {
		t.Fatalf("read %v: %v", g, err)
	}
	return string(v)
}

func TestBasicLifecycle(t *testing.T) {
	e := newEngine(t, twoLevel(t), nil)
	// Write in the upper segment.
	t0, _ := e.Begin(0)
	write(t, t0, gr(0, 1), "hello")
	if got := read(t, t0, gr(0, 1)); got != "hello" {
		t.Fatalf("read-own-write = %q", got)
	}
	mustCommit(t, t0)

	// A later lower-class txn sees it via Protocol A.
	t1, _ := e.Begin(1)
	if got := read(t, t1, gr(0, 1)); got != "hello" {
		t.Fatalf("Protocol A read = %q", got)
	}
	write(t, t1, gr(1, 1), "derived")
	mustCommit(t, t1)

	// Reads of absent granules return nil without error.
	t2, _ := e.Begin(1)
	if v, err := t2.Read(gr(0, 99)); err != nil || v != nil {
		t.Fatalf("absent read = %q, %v", v, err)
	}
	mustCommit(t, t2)

	st := e.Stats()
	if st.Commits != 3 || st.Aborts != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestOpsAfterFinishFail(t *testing.T) {
	e := newEngine(t, twoLevel(t), nil)
	tx, _ := e.Begin(0)
	mustCommit(t, tx)
	if err := tx.Commit(); err != cc.ErrTxnDone {
		t.Fatalf("double commit err = %v", err)
	}
	if _, err := tx.Read(gr(0, 1)); err != cc.ErrTxnDone {
		t.Fatalf("read after commit err = %v", err)
	}
	if err := tx.Write(gr(0, 1), nil); err != cc.ErrTxnDone {
		t.Fatalf("write after commit err = %v", err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatalf("abort after commit should be a no-op: %v", err)
	}
}

// TestProtocolANoRegistrationNoBlock: cross-class reads leave no trace in
// the store and proceed even while an upper-class transaction holds a
// pending write on the same granule.
func TestProtocolANoRegistrationNoBlock(t *testing.T) {
	e := newEngine(t, twoLevel(t), nil)
	w0, _ := e.Begin(0)
	write(t, w0, gr(0, 7), "v1")
	mustCommit(t, w0)

	// An active upper writer with a pending version.
	w1, _ := e.Begin(0)
	write(t, w1, gr(0, 7), "v2-pending")

	// Lower-class reader: must not block, must see v1, must not register.
	before := e.Store().Stats().ReadRegistrations
	r1, _ := e.Begin(1)
	if got := read(t, r1, gr(0, 7)); got != "v1" {
		t.Fatalf("Protocol A read = %q, want v1", got)
	}
	mustCommit(t, r1)
	if after := e.Store().Stats().ReadRegistrations; after != before {
		t.Fatal("Protocol A read registered a read timestamp")
	}
	if e.Stats().BlockedReads != 0 {
		t.Fatal("Protocol A read blocked")
	}
	mustCommit(t, w1)
}

// TestProtocolAThresholdExcludesConcurrent: a version committed by an
// upper transaction that was active when the reader initiated is invisible
// — the activity-link threshold pins the reader below it.
func TestProtocolAThresholdExcludesConcurrent(t *testing.T) {
	e := newEngine(t, twoLevel(t), nil)
	base, _ := e.Begin(0)
	write(t, base, gr(0, 3), "old")
	mustCommit(t, base)

	w, _ := e.Begin(0) // active upper txn
	r, _ := e.Begin(1) // reader initiates while w is active
	write(t, w, gr(0, 3), "new")
	mustCommit(t, w) // commits before the reader reads

	// The reader's threshold A_1^0(I(r)) = I(w) < TS of "new", so it
	// still sees "old" — exactly the paper's consistency guarantee.
	if got := read(t, r, gr(0, 3)); got != "old" {
		t.Fatalf("read = %q, want old (threshold excludes concurrent writer)", got)
	}
	mustCommit(t, r)

	// A reader initiated after w resolved sees "new".
	r2, _ := e.Begin(1)
	if got := read(t, r2, gr(0, 3)); got != "new" {
		t.Fatalf("read = %q, want new", got)
	}
	mustCommit(t, r2)
}

// TestProtocolBConflict: two same-class writers on one granule — the one
// that would invalidate a registered read or write out of order aborts.
func TestProtocolBConflict(t *testing.T) {
	e := newEngine(t, twoLevel(t), nil)
	a, _ := e.Begin(0)
	b, _ := e.Begin(0) // b is younger
	// b reads the granule (registers rts = I(b)).
	if v := read(t, b, gr(0, 5)); v != "" {
		t.Fatalf("unexpected value %q", v)
	}
	// a's write would invalidate b's read: must abort a.
	err := a.Write(gr(0, 5), []byte("late"))
	if !cc.IsAbort(err) || cc.AbortReason(err) != cc.ReasonWriteRejected {
		t.Fatalf("err = %v, want write-rejected abort", err)
	}
	if e.Stats().RejectedWrites != 1 {
		t.Fatalf("RejectedWrites = %d", e.Stats().RejectedWrites)
	}
	mustCommit(t, b)
}

// TestProtocolBReadWaitsForPending: a same-class reader above a pending
// version waits for its resolution rather than reading around it.
func TestProtocolBReadWaitsForPending(t *testing.T) {
	e := newEngine(t, twoLevel(t), nil)
	w, _ := e.Begin(0)
	write(t, w, gr(0, 9), "pending")

	r, _ := e.Begin(0)
	done := make(chan string)
	go func() {
		done <- read(t, r, gr(0, 9))
	}()
	// Give the reader a chance to block, then commit the writer.
	mustCommit(t, w)
	if got := <-done; got != "pending" {
		t.Fatalf("read = %q, want pending (after wait)", got)
	}
	mustCommit(t, r)
}

func TestClassViolation(t *testing.T) {
	e := newEngine(t, twoLevel(t), nil)
	// Class 0 may not read segment 1.
	tx, _ := e.Begin(0)
	_, err := tx.Read(gr(1, 1))
	if !cc.IsAbort(err) || cc.AbortReason(err) != cc.ReasonClassViolation {
		t.Fatalf("err = %v, want class-violation abort", err)
	}
	// Class 1 may not write segment 0.
	tx2, _ := e.Begin(1)
	err = tx2.Write(gr(0, 1), nil)
	if !cc.IsAbort(err) || cc.AbortReason(err) != cc.ReasonClassViolation {
		t.Fatalf("err = %v, want class-violation abort", err)
	}
}

func TestUnknownClass(t *testing.T) {
	e := newEngine(t, twoLevel(t), nil)
	if _, err := e.Begin(9); err == nil {
		t.Fatal("expected error for unknown class")
	}
	if _, err := e.BeginReadOnlyOnPath(9); err == nil {
		t.Fatal("expected error for unknown base class")
	}
}

func TestAbortDiscardsWrites(t *testing.T) {
	e := newEngine(t, twoLevel(t), nil)
	tx, _ := e.Begin(0)
	write(t, tx, gr(0, 11), "doomed")
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	r, _ := e.Begin(1)
	if v := read(t, r, gr(0, 11)); v != "" {
		t.Fatalf("aborted write visible: %q", v)
	}
	mustCommit(t, r)
}

// TestReadOnlyProtocolC: read-only transactions read below the released
// wall: consistent, non-blocking, trace-free — and possibly stale.
func TestReadOnlyProtocolC(t *testing.T) {
	e := newEngine(t, branching(t), nil)
	w, _ := e.Begin(0)
	write(t, w, gr(0, 1), "v1")
	mustCommit(t, w)
	// Advance walls past the commit.
	e.Walls().Force()

	before := e.Store().Stats().ReadRegistrations
	ro, _ := e.BeginReadOnly()
	if got := read(t, ro, gr(0, 1)); got != "v1" {
		t.Fatalf("read-only read = %q, want v1", got)
	}
	// Writes are refused.
	if err := ro.Write(gr(0, 1), nil); err == nil {
		t.Fatal("read-only write should fail")
	}
	mustCommit(t, ro)
	if after := e.Store().Stats().ReadRegistrations; after != before {
		t.Fatal("Protocol C read registered a read timestamp")
	}

	// A commit after the wall is invisible until the next wall.
	w2, _ := e.Begin(0)
	write(t, w2, gr(0, 1), "v2")
	mustCommit(t, w2)
	wallAt := e.Walls().Current().At
	ro2, _ := e.BeginReadOnly()
	got := read(t, ro2, gr(0, 1))
	mustCommit(t, ro2)
	if e.Walls().Current().At == wallAt && got != "v1" {
		t.Fatalf("pre-wall reader saw %q", got)
	}
	e.Walls().Force()
	ro3, _ := e.BeginReadOnly()
	if got := read(t, ro3, gr(0, 1)); got != "v2" {
		t.Fatalf("post-wall read = %q, want v2", got)
	}
	mustCommit(t, ro3)
}

// TestReadOnlyOnPath: the Figure 8 fast path reads fresher data than the
// wall and rejects off-path segments.
func TestReadOnlyOnPath(t *testing.T) {
	e := newEngine(t, branching(t), nil)
	w, _ := e.Begin(1)
	write(t, w, gr(1, 4), "mid-value")
	mustCommit(t, w)

	// Fictitious class below class 2 can read segments 2, 1, 0.
	ro, _ := e.BeginReadOnlyOnPath(2)
	if got := read(t, ro, gr(1, 4)); got != "mid-value" {
		t.Fatalf("on-path read = %q", got)
	}
	// Segment 3 is off the critical path through class 2.
	if _, err := ro.Read(gr(3, 1)); err == nil {
		t.Fatal("off-path read should fail")
	}
	mustCommit(t, ro)
	if e.Stats().BlockedReads != 0 {
		t.Fatal("on-path read-only blocked")
	}
}

// TestBeginReadOnlyFor: the §5 routing decision — on-path read sets get
// the fictitious-class fast path, off-path sets get the wall. The variants
// are told apart by what they do: freshness, the off-path error, and the
// protocol their reads are counted under.
func TestBeginReadOnlyFor(t *testing.T) {
	plane := obs.NewPlane()
	// No wall releases after the initial one: a Protocol C reader cannot
	// see the commit below.
	e, err := NewEngine(Config{Partition: branching(t), WallInterval: 1 << 40, Obs: plane})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	w, _ := e.Begin(0)
	write(t, w, gr(0, 1), "fresh")
	mustCommit(t, w)

	// Segments 0,1,2 are one critical path → path variant: sees the
	// commit immediately, without waiting for a wall.
	onPath, err := e.BeginReadOnlyFor(0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := read(t, onPath, gr(0, 1)); got != "fresh" {
		t.Fatalf("on-path read = %q", got)
	}
	// Segment 3 is off the path: reading it fails without ending the
	// transaction.
	if _, err := onPath.Read(gr(3, 1)); err == nil || cc.IsAbort(err) {
		t.Fatalf("off-path read under path variant = %v, want a non-abort error", err)
	}
	read(t, onPath, gr(2, 1))
	mustCommit(t, onPath)

	// Segments 1 and 3 are incomparable → wall variant: reads below the
	// initial wall, which predates the commit, and may read any segment.
	offPath, err := e.BeginReadOnlyFor(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := read(t, offPath, gr(0, 1)); got != "" {
		t.Fatalf("wall-variant read = %q, want the pre-commit state", got)
	}
	read(t, offPath, gr(3, 1))
	mustCommit(t, offPath)

	// Empty declaration falls back to the wall.
	fallback, err := e.BeginReadOnlyFor()
	if err != nil {
		t.Fatal(err)
	}
	if got := read(t, fallback, gr(0, 1)); got != "" {
		t.Fatalf("fallback read = %q, want the pre-commit state", got)
	}
	mustCommit(t, fallback)

	wantSeries(t, scrapeObs(plane),
		`hdd_reads_total{protocol="A-path"} 2`,
		`hdd_reads_total{protocol="C"} 3`,
	)

	// Unknown segments are rejected.
	if _, err := e.BeginReadOnlyFor(42); err == nil {
		t.Fatal("unknown segment accepted")
	}
}

// TestReadOnlyUnknownSegment: a read-only read of a segment the partition
// does not have returns an error, never panics, and leaves the transaction
// open; an update transaction answers the same read with a class-violation
// abort.
func TestReadOnlyUnknownSegment(t *testing.T) {
	e := newEngine(t, branching(t), nil)
	defer e.Close()
	for _, begin := range []func() (cc.Txn, error){
		e.BeginReadOnly,
		func() (cc.Txn, error) { return e.BeginReadOnlyOnPath(2) },
	} {
		ro, err := begin()
		if err != nil {
			t.Fatal(err)
		}
		for _, seg := range []int{99, 4, -1} {
			if _, err := ro.Read(gr(seg, 1)); err == nil || cc.IsAbort(err) {
				t.Fatalf("read of segment %d = %v, want a non-abort error", seg, err)
			}
			if _, err := ro.(cc.SharedReader).ReadShared(gr(seg, 1)); err == nil {
				t.Fatalf("shared read of segment %d succeeded", seg)
			}
		}
		read(t, ro, gr(0, 1))
		mustCommit(t, ro)
	}
	up, _ := e.Begin(2)
	if _, err := up.Read(gr(99, 1)); cc.AbortReason(err) != cc.ReasonClassViolation {
		t.Fatalf("update read of segment 99 = %v, want a class-violation abort", err)
	}
	if e.Stats().Reads != 2 {
		t.Fatalf("Reads = %d, want 2: refused reads are not counted", e.Stats().Reads)
	}
}

// TestWallConsistentAcrossBranches: a read-only transaction must see a
// state consistent across sibling branches: if it sees a class-2 value
// derived from a class-0 event, it must also see that event.
func TestWallConsistentAcrossBranches(t *testing.T) {
	e := newEngine(t, branching(t), nil)
	// Event at the top.
	w0, _ := e.Begin(0)
	write(t, w0, gr(0, 1), "event-1")
	mustCommit(t, w0)
	// Derived value in the mid segment reads it.
	w1, _ := e.Begin(1)
	if got := read(t, w1, gr(0, 1)); got != "event-1" {
		t.Fatalf("setup: %q", got)
	}
	write(t, w1, gr(1, 1), "derived-from-1")
	mustCommit(t, w1)
	e.Walls().Force()

	ro, _ := e.BeginReadOnly()
	derived := read(t, ro, gr(1, 1))
	event := read(t, ro, gr(0, 1))
	mustCommit(t, ro)
	if derived == "derived-from-1" && event != "event-1" {
		t.Fatalf("wall-inconsistent state: derived %q without event %q", derived, event)
	}
}

// TestSerializabilityUnderLoad is the main property test: many concurrent
// clients over the branching partition, with read-only transactions mixed
// in and a killer force-aborting random in-flight ones
// the way the reaper and the server's orphan cleanup do, must always
// produce an acyclic dependency graph (Theorems 1 and 2).
func TestSerializabilityUnderLoad(t *testing.T) {
	killed := 0
	for seed := int64(0); seed < 4; seed++ {
		rec := sched.NewRecorder()
		e := newEngine(t, branching(t), rec)
		var kills atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < 8; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				r := rand.New(rand.NewSource(seed*100 + int64(c)))
				// Past the first 60, keep the killer supplied with
				// victims until it has force-aborted one.
				for i := 0; i < 60 || kills.Load() == 0 && i < 100_000; i++ {
					runRandomTxn(e, r)
				}
			}(c)
		}
		stop, killerDone := make(chan struct{}), make(chan int)
		go func() {
			r := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					killerDone <- int(kills.Load())
					return
				default:
				}
				if ids := liveIDs(e); len(ids) > 0 && e.ForceAbort(ids[r.Intn(len(ids))]) {
					kills.Add(1)
				}
				runtime.Gosched()
			}
		}()
		wg.Wait()
		close(stop)
		killed += <-killerDone
		g := rec.Build()
		if !g.Serializable() {
			t.Fatalf("seed %d: HDD schedule not serializable:\n%s", seed, g.ExplainCycle())
		}
		if rec.NumCommitted() == 0 {
			t.Fatalf("seed %d: nothing committed; test vacuous", seed)
		}
		if n := e.ActiveTxns(); n != 0 {
			t.Fatalf("seed %d: %d transactions still in flight", seed, n)
		}
	}
	if killed == 0 {
		t.Fatal("the killer never force-aborted a transaction; test vacuous")
	}
	t.Logf("force-aborted %d in-flight transactions", killed)
}

// liveIDs returns the ids of the engine's in-flight transactions, read
// from its registry.
func liveIDs(e *Engine) []cc.TxnID {
	var ids []cc.TxnID
	for i := range e.live.stripes {
		s := &e.live.stripes[i]
		s.mu.Lock()
		for id := range s.txns {
			ids = append(ids, id)
		}
		s.mu.Unlock()
	}
	return ids
}

// runRandomTxn executes one random transaction against the branching
// partition: class 0 writes events; class 1 derives from 0; class 2 from
// 0 and 1; class 3 from 0; plus Protocol C read-only transactions over the
// whole database and over the two incomparable branches D1 and D3, and
// on-path read-only transactions (the fictitious class below class 2).
// Aborted attempts are retried a bounded number of times.
func runRandomTxn(e *Engine, r *rand.Rand) {
	kind := r.Intn(12)
	for attempt := 0; attempt < 50; attempt++ {
		var err error
		switch {
		case kind < 4: // class 0 writer
			tx, _ := e.Begin(0)
			err = doRMW(tx, r, 0, nil)
		case kind < 6: // class 1
			tx, _ := e.Begin(1)
			err = doRMW(tx, r, 1, []int{0})
		case kind < 7: // class 2
			tx, _ := e.Begin(2)
			err = doRMW(tx, r, 2, []int{0, 1})
		case kind < 8: // class 3
			tx, _ := e.Begin(3)
			err = doRMW(tx, r, 3, []int{0})
		case kind < 10: // Protocol C read-only
			tx, _ := e.BeginReadOnly()
			err = doReads(tx, r, 0, 1, 2, 3)
		case kind < 11: // read-only on the critical path 0 → 1 → 2
			tx, _ := e.BeginReadOnlyFor(0, 1, 2)
			err = doReads(tx, r, 0, 1, 2)
		default: // Protocol C across the incomparable branches D1 and D3
			tx, _ := e.BeginReadOnly()
			err = doReads(tx, r, 1, 3)
		}
		if err == nil {
			return
		}
		if !cc.IsAbort(err) {
			panic(err)
		}
	}
}

// doReads reads four random granules of the given segments and commits.
func doReads(tx cc.Txn, r *rand.Rand, segs ...int) error {
	for i := 0; i < 4; i++ {
		if _, err := tx.Read(gr(segs[r.Intn(len(segs))], r.Intn(16))); err != nil {
			_ = tx.Abort()
			return err
		}
	}
	return tx.Commit()
}

func doRMW(tx cc.Txn, r *rand.Rand, root int, above []int) error {
	for _, seg := range above {
		if _, err := tx.Read(gr(seg, r.Intn(16))); err != nil {
			_ = tx.Abort()
			return err
		}
	}
	g := gr(root, r.Intn(16))
	old, err := tx.Read(g)
	if err != nil {
		_ = tx.Abort()
		return err
	}
	if err := tx.Write(g, append(old, byte(r.Intn(256)))); err != nil {
		_ = tx.Abort()
		return err
	}
	return tx.Commit()
}

// TestGC: garbage collection prunes old versions while preserving every
// answerable read.
func TestGC(t *testing.T) {
	part := twoLevel(t)
	e, err := NewEngine(Config{Partition: part, WallInterval: 4, GCEveryCommits: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		tx, _ := e.Begin(0)
		write(t, tx, gr(0, 1), fmt.Sprintf("v%d", i))
		mustCommit(t, tx)
	}
	if e.GCRuns() == 0 {
		t.Fatal("automatic GC never ran")
	}
	e.Walls().Force()
	pruned := e.ForceGC()
	if e.Store().TotalVersions() >= 100 {
		t.Fatalf("GC ineffective: %d versions retained (pruned %d)", e.Store().TotalVersions(), pruned)
	}
	// Latest value still readable by a fresh transaction.
	r1, _ := e.Begin(1)
	if got := read(t, r1, gr(0, 1)); got != "v99" {
		t.Fatalf("post-GC read = %q, want v99", got)
	}
	mustCommit(t, r1)
	// And by a read-only transaction under the current wall.
	ro, _ := e.BeginReadOnly()
	if got := read(t, ro, gr(0, 1)); got != "v99" {
		t.Fatalf("post-GC wall read = %q", got)
	}
	mustCommit(t, ro)
}

// TestSameGranuleOverwrite: a transaction overwriting its own write keeps
// one version.
func TestSameGranuleOverwrite(t *testing.T) {
	e := newEngine(t, twoLevel(t), nil)
	tx, _ := e.Begin(0)
	write(t, tx, gr(0, 2), "a")
	write(t, tx, gr(0, 2), "b")
	mustCommit(t, tx)
	if n := len(e.Store().Versions(gr(0, 2))); n != 1 {
		t.Fatalf("versions = %d, want 1", n)
	}
	r, _ := e.Begin(1)
	if got := read(t, r, gr(0, 2)); got != "b" {
		t.Fatalf("read = %q", got)
	}
	mustCommit(t, r)
}

func TestEngineRequiresPartition(t *testing.T) {
	if _, err := NewEngine(Config{}); err == nil {
		t.Fatal("expected error for missing partition")
	}
}

func TestStatsAccounting(t *testing.T) {
	e := newEngine(t, twoLevel(t), nil)
	tx, _ := e.Begin(0)
	write(t, tx, gr(0, 1), "x")
	_ = read(t, tx, gr(0, 1))
	mustCommit(t, tx)
	r, _ := e.Begin(1)
	_ = read(t, r, gr(0, 1)) // Protocol A: counted as read, not registered
	mustCommit(t, r)
	st := e.Stats()
	if st.Reads != 2 || st.Writes != 1 || st.Begins != 2 || st.Commits != 2 {
		t.Fatalf("stats = %+v", st)
	}
	// The only registered read is the root-segment one... which was a
	// read-own-write served locally, so zero registrations.
	if st.ReadRegistrations != 0 {
		t.Fatalf("ReadRegistrations = %d, want 0", st.ReadRegistrations)
	}
	// A root read that hits the store registers.
	r2, _ := e.Begin(0)
	_ = read(t, r2, gr(0, 1))
	mustCommit(t, r2)
	if e.Stats().ReadRegistrations != 1 {
		t.Fatalf("ReadRegistrations = %d, want 1", e.Stats().ReadRegistrations)
	}
}

// TestWallNeverBlocksReadOnly: even with update churn, every read-only
// read completes without error.
func TestWallNeverBlocksReadOnly(t *testing.T) {
	e := newEngine(t, branching(t), nil)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := rand.New(rand.NewSource(1))
		for {
			select {
			case <-stop:
				return
			default:
			}
			runRandomTxn(e, r)
		}
	}()
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		ro, _ := e.BeginReadOnly()
		for j := 0; j < 4; j++ {
			if _, err := ro.Read(gr(r.Intn(4), r.Intn(16))); err != nil {
				t.Fatalf("read-only read failed: %v", err)
			}
		}
		mustCommit(t, ro)
	}
	close(stop)
	wg.Wait()
}

func TestClockAndAccessors(t *testing.T) {
	part := twoLevel(t)
	e, err := NewEngine(Config{Partition: part})
	if err != nil {
		t.Fatal(err)
	}
	if e.Clock() == nil || e.Partition() != part {
		t.Fatal("accessors broken")
	}
	if e.Name() != "HDD" {
		t.Fatalf("Name = %q", e.Name())
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if e.Links() == nil || e.Walls() == nil || e.Store() == nil {
		t.Fatal("nil subsystem accessor")
	}
}
