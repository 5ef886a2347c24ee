package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hdd/internal/cc"
	"hdd/internal/mvstore"
	"hdd/internal/schema"
	"hdd/internal/vclock"
	"hdd/internal/wal"
)

// durableEngine opens a WAL-backed engine over dir with automatic
// snapshots disabled (tests trigger them explicitly).
func durableEngine(t *testing.T, part *schema.Partition, dir string) *Engine {
	t.Helper()
	e, err := NewEngine(Config{
		Partition:     part,
		WallInterval:  8,
		DataDir:       dir,
		SnapshotBytes: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// readLatest reads g through a fresh update transaction of the writing
// class — a Protocol B own-root read, which sees the latest committed
// version regardless of wall release.
func readLatest(t *testing.T, e *Engine, class schema.ClassID, g schema.GranuleID) (string, bool) {
	t.Helper()
	txn, err := e.Begin(class)
	if err != nil {
		t.Fatal(err)
	}
	defer txn.Abort()
	v, err := txn.Read(g)
	if err != nil {
		t.Fatalf("read %v: %v", g, err)
	}
	return string(v), v != nil
}

func TestDurableCommitSurvivesReopen(t *testing.T) {
	part := twoLevel(t)
	dir := t.TempDir()
	e := durableEngine(t, part, dir)
	for i := 0; i < 10; i++ {
		txn, err := e.Begin(0)
		if err != nil {
			t.Fatal(err)
		}
		write(t, txn, gr(0, i), "v")
		mustCommit(t, txn)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	e2 := durableEngine(t, part, dir)
	defer e2.Close()
	if e2.dur.rec.SnapshotLoaded {
		t.Error("snapshot reported loaded; none was written")
	}
	if e2.dur.rec.ReplayedRecords == 0 {
		t.Error("no records replayed on reopen")
	}
	for i := 0; i < 10; i++ {
		if v, ok := readLatest(t, e2, 0, gr(0, i)); !ok || v != "v" {
			t.Fatalf("key %d: got (%q, %v), want recovered \"v\"", i, v, ok)
		}
	}
}

func TestUncommittedWritesDoNotSurvive(t *testing.T) {
	part := twoLevel(t)
	dir := t.TempDir()
	e := durableEngine(t, part, dir)
	committed, err := e.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	write(t, committed, gr(0, 1), "durable")
	mustCommit(t, committed)
	// This transaction never commits, so neither its write nor a marker
	// reaches the log — recovery must not invent it.
	hanging, err := e.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	write(t, hanging, gr(0, 2), "ghost")
	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	e2 := durableEngine(t, part, dir)
	defer e2.Close()
	if v, ok := readLatest(t, e2, 0, gr(0, 1)); !ok || v != "durable" {
		t.Fatalf("committed key lost: got (%q, %v)", v, ok)
	}
	if v, ok := readLatest(t, e2, 0, gr(0, 2)); ok {
		t.Fatalf("uncommitted write survived recovery: %q", v)
	}
}

func TestSnapshotTruncatesLogAndRecovers(t *testing.T) {
	part := twoLevel(t)
	dir := t.TempDir()
	e := durableEngine(t, part, dir)
	for i := 0; i < 5; i++ {
		txn, err := e.Begin(0)
		if err != nil {
			t.Fatal(err)
		}
		write(t, txn, gr(0, i), "snap")
		mustCommit(t, txn)
	}
	derived, err := e.Begin(1)
	if err != nil {
		t.Fatal(err)
	}
	write(t, derived, gr(1, 1), read(t, derived, gr(0, 0))+"-derived")
	mustCommit(t, derived)
	if err := e.Snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if n := e.dur.log.Size(); n != 0 {
		t.Errorf("log not truncated after snapshot: %d bytes", n)
	}
	if n := e.dur.snapshots.Load(); n != 1 {
		t.Errorf("snapshots = %d, want 1", n)
	}
	// More commits after the snapshot land in the fresh log.
	txn, err := e.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	write(t, txn, gr(0, 99), "tail")
	mustCommit(t, txn)
	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	e2 := durableEngine(t, part, dir)
	defer e2.Close()
	if !e2.dur.rec.SnapshotLoaded {
		t.Error("snapshot not loaded on reopen")
	}
	for i := 0; i < 5; i++ {
		if v, ok := readLatest(t, e2, 0, gr(0, i)); !ok || v != "snap" {
			t.Fatalf("key %d from snapshot: got (%q, %v)", i, v, ok)
		}
	}
	if v, ok := readLatest(t, e2, 0, gr(0, 99)); !ok || v != "tail" {
		t.Fatalf("post-snapshot key: got (%q, %v)", v, ok)
	}
	if v, ok := readLatest(t, e2, 1, gr(1, 1)); !ok || v != "snap-derived" {
		t.Fatalf("class 1's root from snapshot: got (%q, %v)", v, ok)
	}
	// Protocol C sees the recovered state at once: recovery forces a wall.
	ro, err := e2.BeginReadOnly()
	if err != nil {
		t.Fatal(err)
	}
	if got := read(t, ro, gr(0, 0)); got != "snap" {
		t.Fatalf("Protocol C read after recovery = %q, want snap", got)
	}
	mustCommit(t, ro)
}

// TestSnapshotDuringLoad: snapshots taken while updates churn hold a
// consistent state (the gate drains in-flight transactions first). Each
// transaction writes one value to a pair of granules; the snapshot file
// alone, opened as a data directory, must hold only committed versions
// and show every pair equal to a Protocol C reader. So must the full
// directory, snapshot plus log, once the churn stops.
func TestSnapshotDuringLoad(t *testing.T) {
	const pairs = 8
	part := twoLevel(t)
	dir := t.TempDir()
	e := durableEngine(t, part, dir)
	consistent := func(label, dir string) {
		t.Helper()
		r := durableEngine(t, part, dir)
		defer r.Close()
		for k := 0; k < 2*pairs; k++ {
			for _, v := range r.Store().Versions(gr(0, k)) {
				if v.State != mvstore.Committed {
					t.Fatalf("%s: pending version %v@%d", label, gr(0, k), v.TS)
				}
			}
		}
		ro, err := r.BeginReadOnly()
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < pairs; k++ {
			if a, b := read(t, ro, gr(0, k)), read(t, ro, gr(0, k+pairs)); a != b {
				t.Fatalf("%s: pair %d reads %q and %q", label, k, a, b)
			}
		}
		mustCommit(t, ro)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	stopChurn := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer stopChurn()
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k, v := (c*31+i)%pairs, []byte(fmt.Sprintf("c%d-%d", c, i))
				tx, err := e.Begin(0)
				if err != nil {
					t.Error(err)
					return
				}
				if tx.Write(gr(0, k), v) != nil || tx.Write(gr(0, k+pairs), v) != nil {
					_ = tx.Abort()
					continue
				}
				_ = tx.Commit()
			}
		}(c)
	}
	for k := 0; k < 5; k++ {
		n := e.Stats().Commits
		waitFor(t, 10*time.Second, func() bool { return e.Stats().Commits >= n+20 }, "the churn to commit between snapshots")
		if err := e.Snapshot(); err != nil {
			t.Fatal(err)
		}
		snap, err := os.ReadFile(filepath.Join(dir, snapshotFile))
		if err != nil {
			t.Fatal(err)
		}
		only := t.TempDir()
		if err := os.WriteFile(filepath.Join(only, snapshotFile), snap, 0o644); err != nil {
			t.Fatal(err)
		}
		consistent(fmt.Sprintf("snapshot %d", k), only)
	}
	stopChurn()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	consistent("snapshot and log", dir)
}

// TestDurableWriteRefusesOversizedValue: a commit logs each written value
// as one record, so a durable engine refuses a longer value at Write,
// naming its size, and installs nothing; the transaction stays usable,
// the engine keeps committing and closes. A value of exactly
// wal.MaxValue bytes commits, snapshots and recovers.
func TestDurableWriteRefusesOversizedValue(t *testing.T) {
	part := twoLevel(t)
	dir := t.TempDir()
	e := durableEngine(t, part, dir)
	tx, err := e.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	n := wal.MaxValue + 1
	if err := tx.Write(gr(0, 1), make([]byte, n)); err == nil || cc.IsAbort(err) || !strings.Contains(err.Error(), strconv.Itoa(n)) {
		t.Fatalf("write of %d bytes: err = %v, want a refusal naming its size", n, err)
	}
	if vs := e.Store().Versions(gr(0, 1)); len(vs) != 0 {
		t.Fatalf("the refused write installed %+v", vs)
	}
	write(t, tx, gr(0, 1), "small")
	mustCommit(t, tx)
	big := strings.Repeat("b", wal.MaxValue)
	tx, err = e.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	write(t, tx, gr(0, 2), big)
	mustCommit(t, tx)
	if err := e.Snapshot(); err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() { closed <- e.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung")
	}
	e2 := durableEngine(t, part, dir)
	defer e2.Close()
	if v, ok := readLatest(t, e2, 0, gr(0, 1)); !ok || v != "small" {
		t.Fatalf("recovered %v: got (%q, %v)", gr(0, 1), v, ok)
	}
	if v, ok := readLatest(t, e2, 0, gr(0, 2)); !ok || v != big {
		t.Fatalf("recovered %v: %d bytes, found %v; want %d", gr(0, 2), len(v), ok, len(big))
	}
}

// TestSnapshotRacingGCRecoversCleanly runs committers with GC on every
// commit, plus ForceGC, against back-to-back snapshots; recovery must then
// see every committed value. A GC pass appends nothing to the log, so it
// cannot race the snapshot's log reset by construction; the appends that
// remain come from committers holding an admission-gate share, which the
// snapshot's quiesce excludes. Run under -race this also exercises the
// wal.Log ioMu path.
func TestSnapshotRacingGCRecoversCleanly(t *testing.T) {
	part := twoLevel(t)
	dir := t.TempDir()
	e, err := NewEngine(Config{
		Partition:      part,
		WallInterval:   4,
		DataDir:        dir,
		SnapshotBytes:  -1,
		GCEveryCommits: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	const keys = 40
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < keys; i++ {
			txn, err := e.Begin(0)
			if err != nil {
				t.Error(err)
				return
			}
			write(t, txn, gr(0, i), "v")
			mustCommit(t, txn)
			e.ForceGC()
		}
	}()
	for {
		select {
		case <-done:
		default:
			if err := e.Snapshot(); err != nil {
				t.Fatalf("snapshot: %v", err)
			}
			continue
		}
		break
	}
	if err := e.Snapshot(); err != nil {
		t.Fatalf("final snapshot: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	e2 := durableEngine(t, part, dir)
	defer e2.Close()
	for i := 0; i < keys; i++ {
		if v, ok := readLatest(t, e2, 0, gr(0, i)); !ok || v != "v" {
			t.Fatalf("key %d lost across snapshot/GC race: got (%q, %v)", i, v, ok)
		}
	}
}

func TestTornTailTruncatedOnRecovery(t *testing.T) {
	part := twoLevel(t)
	dir := t.TempDir()
	e := durableEngine(t, part, dir)
	txn, err := e.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	write(t, txn, gr(0, 1), "before-crash")
	mustCommit(t, txn)
	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Simulate a crash mid-flush: append half a frame to the log.
	walPath := filepath.Join(dir, walFile)
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0, 0, 0, 40, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	e2 := durableEngine(t, part, dir)
	defer e2.Close()
	if !e2.dur.rec.TornTail {
		t.Error("torn tail not reported")
	}
	if v, ok := readLatest(t, e2, 0, gr(0, 1)); !ok || v != "before-crash" {
		t.Fatalf("pre-tear commit lost: got (%q, %v)", v, ok)
	}
	// The tail was truncated: appends start on a clean boundary, so a
	// third open replays everything cleanly.
	txn2, err := e2.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	write(t, txn2, gr(0, 2), "after-tear")
	mustCommit(t, txn2)
	e2.Close()
	e3 := durableEngine(t, part, dir)
	defer e3.Close()
	if e3.dur.rec.TornTail {
		t.Error("tear reported again after truncation")
	}
	if v, ok := readLatest(t, e3, 0, gr(0, 2)); !ok || v != "after-tear" {
		t.Fatalf("post-tear commit lost: got (%q, %v)", v, ok)
	}
}

func TestClockRestartsAboveRecoveredHighWater(t *testing.T) {
	part := twoLevel(t)
	dir := t.TempDir()
	e := durableEngine(t, part, dir)
	var last vclock.Time
	for i := 0; i < 20; i++ {
		txn, err := e.Begin(0)
		if err != nil {
			t.Fatal(err)
		}
		last = txn.ID()
		write(t, txn, gr(0, 0), "x")
		mustCommit(t, txn)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2 := durableEngine(t, part, dir)
	defer e2.Close()
	if hw := e2.dur.rec.HighWater; hw < last {
		t.Errorf("recovered high water %d below last committed txn %d", hw, last)
	}
	txn, err := e2.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	if txn.ID() <= last {
		t.Errorf("post-recovery txn %d not above recovered high water %d", txn.ID(), last)
	}
	// And it can overwrite the recovered granule (no MVTO rejection from
	// a stale clock).
	write(t, txn, gr(0, 0), "y")
	mustCommit(t, txn)
}

func TestSnapshotterRunsInBackground(t *testing.T) {
	part := twoLevel(t)
	dir := t.TempDir()
	e, err := NewEngine(Config{
		Partition:     part,
		WallInterval:  8,
		DataDir:       dir,
		SnapshotBytes: 1, // every poll (once a second) finds the log over threshold
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	txn, err := e.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	write(t, txn, gr(0, 1), strings.Repeat("z", 128))
	mustCommit(t, txn)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if e.dur.snapshots.Load() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background snapshotter never ran")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotFile)); err != nil {
		t.Fatalf("snapshot file missing: %v", err)
	}
}

// TestLogHoldsCommittedWritesOnly pins what reaches the log: per committed
// transaction, one Write record per granule it wrote, carrying the final
// value, directly followed by its Commit marker. An overwrite, an explicit
// abort, a write-rejection abort, a reaper force-abort and GC passes log
// nothing of their own.
func TestLogHoldsCommittedWritesOnly(t *testing.T) {
	part := twoLevel(t)
	dir := t.TempDir()
	e, err := NewEngine(Config{
		Partition:      part,
		WallInterval:   4,
		GCEveryCommits: 1,
		DataDir:        dir,
		SnapshotBytes:  -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[vclock.Time]map[schema.GranuleID]string{}
	begin := func() cc.Txn {
		t.Helper()
		txn, err := e.Begin(0)
		if err != nil {
			t.Fatal(err)
		}
		return txn
	}
	commit := func(txn cc.Txn, writes map[schema.GranuleID]string) {
		t.Helper()
		mustCommit(t, txn)
		want[txn.ID()] = writes
	}

	// A committed transaction writes one granule twice; a later one
	// overwrites it, so GC has a version to prune.
	a := begin()
	write(t, a, gr(0, 1), "a1")
	write(t, a, gr(0, 1), "a2")
	commit(a, map[schema.GranuleID]string{gr(0, 1): "a2"})
	b := begin()
	write(t, b, gr(0, 1), "b")
	commit(b, map[schema.GranuleID]string{gr(0, 1): "b"})

	// An explicit abort after a write.
	x := begin()
	write(t, x, gr(0, 2), "x")
	x.Abort()

	// A write-rejection abort of a transaction holding a pending write:
	// old writes below the version young committed.
	old, young := begin(), begin()
	write(t, old, gr(0, 3), "old")
	write(t, young, gr(0, 4), "young")
	commit(young, map[schema.GranuleID]string{gr(0, 4): "young"})
	if err := old.Write(gr(0, 4), []byte("late")); !cc.IsAbort(err) {
		t.Fatalf("write below a committed version = %v, want a rejection abort", err)
	}

	// A reaper force-abort of a transaction holding a pending write.
	r := beginWithTimeout(t, e, 0, time.Millisecond)
	write(t, r, gr(0, 5), "reaped")
	if n := e.ReapExpired(time.Now().Add(time.Hour)); n != 1 {
		t.Fatalf("ReapExpired = %d, want 1", n)
	}

	e.Walls().Force()
	e.ForceGC()
	if e.store.Stats().VersionsPruned == 0 {
		t.Fatal("GC pruned nothing; the case needs a pass that prunes")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var run []wal.Record // the writes since the last marker
	committed := 0
	_, _, torn, err := wal.Replay(f, func(rec wal.Record) error {
		switch rec.Kind {
		case wal.KindWrite:
			run = append(run, rec)
			return nil
		case wal.KindCommit:
		default:
			return fmt.Errorf("the log holds a %v record: %+v", rec.Kind, rec)
		}
		got := map[schema.GranuleID]string{}
		for _, w := range run {
			g := schema.GranuleID{Segment: w.Seg, Key: w.Key}
			if _, dup := got[g]; dup || w.Txn != rec.Txn {
				return fmt.Errorf("commit %d follows writes %+v, want one per granule of its own", rec.Txn, run)
			}
			got[g] = string(w.Value)
		}
		if !reflect.DeepEqual(got, want[rec.Txn]) {
			return fmt.Errorf("commit %d logged writes %v, want %v", rec.Txn, got, want[rec.Txn])
		}
		run = run[:0]
		committed++
		return nil
	})
	if err != nil || torn {
		t.Fatalf("replay: %v (torn %v)", err, torn)
	}
	if len(run) != 0 || committed != len(want) {
		t.Fatalf("%d commits logged, want %d; %d writes no marker follows: %+v", committed, len(want), len(run), run)
	}
}

// TestReplayRefusesLegacyRecordKinds boots on a log an earlier build
// wrote, with a Prune record (kind 4) between two acknowledged commits.
// Recovery must fail naming the kind and offset and leave the log as it
// was: read as a torn tail, the frame would truncate the second commit.
func TestReplayRefusesLegacyRecordKinds(t *testing.T) {
	dir := t.TempDir()
	var log []byte
	for _, rec := range []wal.Record{
		{Kind: wal.KindWrite, Txn: 20, Seg: 0, Key: 2, Value: []byte("first")},
		{Kind: wal.KindCommit, Txn: 20},
	} {
		log = wal.AppendFrame(log, &rec)
	}
	at := len(log)
	prune := []byte{4, 0, 0, 0, 0, 0, 0, 0, 20} // kind, watermark
	log = binary.BigEndian.AppendUint32(log, uint32(len(prune)))
	log = binary.BigEndian.AppendUint32(log, crc32.Checksum(prune, crc32.MakeTable(crc32.Castagnoli)))
	log = append(log, prune...)
	for _, rec := range []wal.Record{
		{Kind: wal.KindWrite, Txn: 30, Seg: 0, Key: 3, Value: []byte("second")},
		{Kind: wal.KindCommit, Txn: 30},
	} {
		log = wal.AppendFrame(log, &rec)
	}
	walPath := filepath.Join(dir, walFile)
	if err := os.WriteFile(walPath, log, 0o644); err != nil {
		t.Fatal(err)
	}

	e, err := NewEngine(Config{Partition: twoLevel(t), DataDir: dir})
	if want := fmt.Sprintf("retired kind 4 at offset %d", at); err == nil || !strings.Contains(err.Error(), want) {
		if e != nil {
			e.Close()
		}
		t.Fatalf("recovery over a legacy Prune record: err %v, want one naming %q", err, want)
	}
	if fi, err := os.Stat(walPath); err != nil || fi.Size() != int64(len(log)) {
		t.Fatalf("log after the refused boot: %v, err %v; want its %d bytes untouched", fi, err, len(log))
	}
}
