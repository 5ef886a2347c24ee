package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"hdd/internal/cc"
	"hdd/internal/mvstore"
	"hdd/internal/schema"
	"hdd/internal/vclock"
	"hdd/internal/vfs"
)

// Fail-stop semantics (DESIGN.md §11): the first storage failure poisons
// the engine with cc.ErrDurabilityFailed, update admission closes,
// read-only traffic keeps serving, and a restart against repaired storage
// recovers every previously acknowledged commit.

// faultyEngine opens a WAL-backed engine over dir with the given injector.
func faultyEngine(t *testing.T, part *schema.Partition, dir string, fs vfs.FS) *Engine {
	t.Helper()
	e, err := NewEngine(Config{
		Partition:     part,
		WallInterval:  8,
		DataDir:       dir,
		SnapshotBytes: -1,
		FS:            fs,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// commitUntilFailure commits sequential values until one commit fails,
// returning the failing error and the last acknowledged sequence number
// (0 if none).
func commitUntilFailure(t *testing.T, e *Engine, max int) (failErr error, acked int) {
	t.Helper()
	for seq := 1; seq <= max; seq++ {
		txn, err := e.Begin(0)
		if err != nil {
			return err, acked
		}
		write(t, txn, gr(0, 0), fmt.Sprintf("v%d", seq))
		if err := txn.Commit(); err != nil {
			return err, acked
		}
		acked = seq
	}
	return nil, acked
}

func TestFsyncFailurePoisonsEngine(t *testing.T) {
	part := twoLevel(t)
	dir := t.TempDir()
	fs := vfs.NewFaulty(nil)
	// One-shot fault: the disk "recovers" after the third fsync fails —
	// the engine must stay poisoned anyway (fail-stop, not fail-retry).
	fs.Inject(vfs.Fault{Op: vfs.OpSync, Nth: 3})
	e := faultyEngine(t, part, dir, fs)
	defer e.Close()

	failErr, acked := commitUntilFailure(t, e, 50)
	if failErr == nil {
		t.Fatal("no commit ever failed despite the injected fsync fault")
	}
	if !errors.Is(failErr, cc.ErrDurabilityFailed) {
		t.Fatalf("failing commit returned %v, want cc.ErrDurabilityFailed", failErr)
	}
	if acked == 0 {
		t.Fatal("expected some commits to ack before the injected fault")
	}

	// Update admission is closed, with the typed error.
	if _, err := e.Begin(0); !errors.Is(err, cc.ErrDurabilityFailed) {
		t.Fatalf("Begin on poisoned engine = %v, want cc.ErrDurabilityFailed", err)
	}
	// The typed error is terminal, not an abort: retry loops must stop.
	if cc.IsAbort(failErr) {
		t.Fatal("ErrDurabilityFailed must not satisfy IsAbort")
	}

	// Read-only traffic keeps serving.
	e.Walls().Force()
	ro, err := e.BeginReadOnly()
	if err != nil {
		t.Fatalf("BeginReadOnly on degraded engine: %v", err)
	}
	if _, err := ro.Read(gr(0, 0)); err != nil {
		t.Fatalf("Protocol C read on degraded engine: %v", err)
	}
	ro.Abort()

	// The degraded state is visible everywhere it should be.
	if ok, err := e.Degraded(); !ok || !errors.Is(err, cc.ErrDurabilityFailed) {
		t.Fatalf("Degraded() = (%v, %v), want (true, ErrDurabilityFailed)", ok, err)
	}
	if st := e.Stats(); st.DurabilityFailures == 0 {
		t.Fatal("Stats().DurabilityFailures = 0 on a poisoned engine")
	}
	ds, ok := e.DurabilityState()
	if !ok || !ds.Degraded || ds.Cause == "" {
		t.Fatalf("DurabilityState degraded = (%v, %q), want flag and cause", ds.Degraded, ds.Cause)
	}

	// Snapshotting a poisoned log would launder the loss into the durable
	// state; it must refuse.
	if err := e.Snapshot(); !errors.Is(err, cc.ErrDurabilityFailed) {
		t.Fatalf("Snapshot on poisoned engine = %v, want cc.ErrDurabilityFailed", err)
	}

	// Restart against repaired storage: every acked commit must be there.
	e.Close()
	e2 := durableEngine(t, part, dir)
	defer e2.Close()
	if ok, _ := e2.Degraded(); ok {
		t.Fatal("freshly recovered engine reports degraded")
	}
	v, found := readLatest(t, e2, 0, gr(0, 0))
	if !found {
		t.Fatal("acked value lost across restart")
	}
	var seq int
	if _, err := fmt.Sscanf(v, "v%d", &seq); err != nil || seq < acked {
		t.Fatalf("recovered %q, want at least the last acked v%d", v, acked)
	}
}

func TestFlusherFailurePoisonsWithoutCommitWaiter(t *testing.T) {
	part := twoLevel(t)
	dir := t.TempDir()
	fs := vfs.NewFaulty(nil)
	fs.Inject(vfs.Fault{Op: vfs.OpWrite, Nth: 1})
	e := faultyEngine(t, part, dir, fs)
	defer e.Close()

	// The transaction's write record and commit marker are appended back
	// to back, so the doomed flush carries the marker or fails before it
	// is appended; either way the commit wait sees the failure and
	// poisons the engine.
	txn, err := e.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	write(t, txn, gr(0, 0), "doomed")
	cerr := txn.Commit()
	if cerr == nil {
		t.Fatal("commit acked despite the injected write fault")
	}
	if !errors.Is(cerr, cc.ErrDurabilityFailed) {
		t.Fatalf("commit = %v, want cc.ErrDurabilityFailed", cerr)
	}
	if ok, _ := e.Degraded(); !ok {
		t.Fatal("engine not degraded after a flusher write failure")
	}
}

func TestSnapshotFileFailureIsRetryableNotFailStop(t *testing.T) {
	part := twoLevel(t)
	dir := t.TempDir()
	fs := vfs.NewFaulty(nil)
	// OpCreate #1 is the WAL open inside NewEngine; #2 is the snapshot's
	// tmp file. The log stays fully durable when the snapshot write fails,
	// so this must NOT poison the engine.
	fs.Inject(vfs.Fault{Op: vfs.OpCreate, Nth: 2})
	e := faultyEngine(t, part, dir, fs)
	defer e.Close()

	txn, err := e.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	write(t, txn, gr(0, 0), "v1")
	mustCommit(t, txn)

	if err := e.Snapshot(); err == nil {
		t.Fatal("snapshot succeeded despite the injected create fault")
	}
	if ok, _ := e.Degraded(); ok {
		t.Fatal("snapshot-file failure must not poison the engine")
	}
	if n := e.dur.snapshotErrs.Load(); n != 1 {
		t.Fatalf("snapshotErrs = %d, want 1", n)
	}
	// Commits keep working and the next snapshot attempt succeeds.
	txn2, err := e.Begin(0)
	if err != nil {
		t.Fatalf("Begin after snapshot failure: %v", err)
	}
	write(t, txn2, gr(0, 0), "v2")
	mustCommit(t, txn2)
	if err := e.Snapshot(); err != nil {
		t.Fatalf("retried snapshot: %v", err)
	}
}

func TestSnapshotRenameFailureKeepsLog(t *testing.T) {
	part := twoLevel(t)
	dir := t.TempDir()
	fs := vfs.NewFaulty(nil)
	fs.Inject(vfs.Fault{Op: vfs.OpRename, Nth: 1})
	e := faultyEngine(t, part, dir, fs)

	txn, err := e.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	write(t, txn, gr(0, 0), "kept")
	mustCommit(t, txn)
	if err := e.Snapshot(); err == nil {
		t.Fatal("snapshot succeeded despite the injected rename fault")
	}
	if ok, _ := e.Degraded(); ok {
		t.Fatal("rename failure must not poison the engine")
	}
	// The log was not reset, so the commit still recovers from it.
	e.Close()
	e2 := durableEngine(t, part, dir)
	defer e2.Close()
	if v, ok := readLatest(t, e2, 0, gr(0, 0)); !ok || v != "kept" {
		t.Fatalf("recovered (%q, %v), want the logged commit", v, ok)
	}
}

// TestSnapshotLogOverlapReplaysOnce pins what makes a crash between the
// snapshot rename and the log truncation safe: both files then hold the
// same committed writes, in the same record kinds. The truncate fails
// here (the engine degrades, as if it had crashed), and the reboot must
// load the snapshot, replay the whole log over it, and hold every
// acknowledged value exactly once, at its version.
func TestSnapshotLogOverlapReplaysOnce(t *testing.T) {
	part := twoLevel(t)
	dir := t.TempDir()
	fs := vfs.NewFaulty(nil)
	// OpTruncate #1 is wal.Open cutting the new log to its valid prefix at
	// boot; #2 is the log reset that follows the snapshot.
	fs.Inject(vfs.Fault{Op: vfs.OpTruncate, Nth: 2})
	e := faultyEngine(t, part, dir, fs)
	acked := map[schema.GranuleID]map[vclock.Time]string{}
	var last vclock.Time
	for i := 0; i < 9; i++ {
		g := gr(0, i%3)
		txn, err := e.Begin(0)
		if err != nil {
			t.Fatal(err)
		}
		v := fmt.Sprintf("v%d", i)
		write(t, txn, g, v)
		mustCommit(t, txn)
		if acked[g] == nil {
			acked[g] = map[vclock.Time]string{}
		}
		acked[g][txn.ID()], last = v, txn.ID()
	}
	if err := e.Snapshot(); err == nil || !strings.Contains(err.Error(), "truncating wal after snapshot") {
		t.Fatalf("Snapshot = %v, want the injected truncate failure", err)
	}
	e.Close()

	e2 := durableEngine(t, part, dir)
	defer e2.Close()
	rec := e2.dur.rec
	if !rec.SnapshotLoaded || rec.ReplayedRecords == 0 {
		t.Fatalf("recovery = %+v, want the snapshot loaded and the log replayed over it", rec)
	}
	for g, want := range acked {
		vers := e2.store.Versions(g)
		if len(vers) != len(want) {
			t.Fatalf("%v holds %d versions, want each of its %d acknowledged commits once: %+v", g, len(vers), len(want), vers)
		}
		for _, v := range vers {
			got, ts, ok := e2.store.ReadCommittedBefore(g, v.TS+1)
			if v.State != mvstore.Committed || !ok || ts != v.TS || string(got) != want[v.TS] {
				t.Fatalf("%v@%d = %q (state %d), want acknowledged %q", g, v.TS, got, v.State, want[v.TS])
			}
		}
	}
	if rec.HighWater < last || e2.Clock().Now() < rec.HighWater {
		t.Fatalf("high water %d, clock %d; last acknowledged commit %d", rec.HighWater, e2.Clock().Now(), last)
	}
	txn, err := e2.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	defer txn.Abort()
	if txn.ID() <= rec.HighWater {
		t.Fatalf("first transaction after recovery at %d, not above the high water %d", txn.ID(), rec.HighWater)
	}
}
