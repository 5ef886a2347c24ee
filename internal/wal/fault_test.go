package wal

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"hdd/internal/vclock"
	"hdd/internal/vfs"
)

// Fail-stop regression tests driven by the vfs fault injector: partial
// writes must not overstate FlushedBytes, the first storage failure must
// poison the log permanently, and queued waiters must observe the failure
// immediately.

func commitRecord(ts vclock.Time) *Record {
	return &Record{Kind: KindCommit, Txn: ts}
}

// TestShortWriteAccounting injects a short write into the first flush and
// checks that FlushedBytes advances only by the bytes that actually hit
// the file — not the full buffer the flusher attempted.
func TestShortWriteAccounting(t *testing.T) {
	dir := t.TempDir()
	fs := vfs.NewFaulty(nil)
	const keep = 5
	fs.Inject(vfs.Fault{Op: vfs.OpWrite, Nth: 1, Mode: vfs.ModeShortWrite, KeepBytes: keep})
	l, err := Open(filepath.Join(dir, "wal.log"), -1, Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	wait := l.Commit(commitRecord(7))
	if err := wait(); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("commit wait = %v, want ErrInjected", err)
	}
	if got := l.Stats().FlushedBytes; got != keep {
		t.Fatalf("FlushedBytes = %d, want %d (the short prefix)", got, keep)
	}
	info, err := os.Stat(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != keep {
		t.Fatalf("file size = %d, want %d", info.Size(), keep)
	}
}

// TestPoisonIsSticky fails only the first fsync; the fault is one-shot, so
// the "disk" recovers afterwards — but an unknown amount of acknowledged
// state may be missing, so the log must stay poisoned anyway.
func TestPoisonIsSticky(t *testing.T) {
	dir := t.TempDir()
	fs := vfs.NewFaulty(nil)
	fs.Inject(vfs.Fault{Op: vfs.OpSync, Nth: 1})
	l, err := Open(filepath.Join(dir, "wal.log"), -1, Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Commit(commitRecord(1))(); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("first commit = %v, want ErrInjected", err)
	}
	// The injector would let every later sync succeed; the log must not.
	if err := l.Commit(commitRecord(2))(); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("commit after recovery = %v, want the sticky ErrInjected", err)
	}
	if err := l.Err(); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("Err() = %v, want the sticky error", err)
	}
	if l.Stats().Dropped == 0 {
		t.Fatal("poisoned appends should count as Dropped")
	}
}

// gateFS wraps a vfs.FS so the test can hold the flusher inside a failing
// Sync while a second commit waiter attaches to the next batch — the
// stranded-waiter window flushOnce must resolve.
type gateFS struct {
	vfs.FS
	entered chan struct{} // closed when Sync is reached
	release chan struct{} // Sync returns (with an error) once closed
}

func (g *gateFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := g.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &gateFile{File: f, g: g}, nil
}

type gateFile struct {
	vfs.File
	g *gateFS
}

var errGated = errors.New("gated sync failed")

func (f *gateFile) Sync() error {
	close(f.g.entered)
	<-f.g.release
	return errGated
}

// TestStrandedWaiterFailsImmediately queues a second commit while the
// first batch's fsync is mid-failure. The second waiter's batch will never
// get another flush (the poisoned log rejects all future appends, so
// nothing kicks the flusher for it); flushOnce must fail it directly.
func TestStrandedWaiterFailsImmediately(t *testing.T) {
	dir := t.TempDir()
	fs := &gateFS{FS: vfs.OS{}, entered: make(chan struct{}), release: make(chan struct{})}
	l, err := Open(filepath.Join(dir, "wal.log"), -1, Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	w1 := l.Commit(commitRecord(1))
	<-fs.entered // flusher is inside the doomed fsync
	w2 := l.Commit(commitRecord(2))
	close(fs.release)
	if err := w1(); !errors.Is(err, errGated) {
		t.Fatalf("first waiter = %v, want errGated", err)
	}
	done := make(chan error, 1)
	go func() { done <- w2() }()
	select {
	case err := <-done:
		if !errors.Is(err, errGated) {
			t.Fatalf("stranded waiter = %v, want errGated", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stranded waiter still blocked after the failed flush")
	}
}

// diskFS is a disk under overlapping fsyncs. Its first Sync, a warm-up,
// takes warm: that gives the log a flush time long enough that every
// later commit here is flushed beside the flush in flight. Sync n (2 or
// 3) waits at gates[n] until the test opens it. A writeback error is
// reported as Linux reports one: recorded once for the file (errs), and
// returned by the first Sync through each open file that looks after it.
type diskFS struct {
	vfs.FS
	warm  time.Duration
	gates [4]gate
	mu    sync.Mutex
	n     int // Syncs begun
	errs  int // writeback errors recorded
}

type gate struct{ entered, release, returned chan struct{} }

func newDiskFS() *diskFS {
	d := &diskFS{FS: vfs.OS{}, warm: 400 * time.Millisecond}
	for i := range d.gates {
		d.gates[i] = gate{make(chan struct{}), make(chan struct{}), make(chan struct{})}
	}
	return d
}

func (d *diskFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := d.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return &diskFile{File: f, d: d, seen: d.errs}, nil
}

// fail records a writeback error: bytes written earlier did not reach the
// disk.
func (d *diskFS) fail() {
	d.mu.Lock()
	d.errs++
	d.mu.Unlock()
}

// entered waits until Sync n has begun, or fails the test.
func (d *diskFS) entered(t *testing.T, n int, what string) {
	t.Helper()
	select {
	case <-d.gates[n].entered:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: its fsync never began", what)
	}
}

type diskFile struct {
	vfs.File
	d    *diskFS
	seen int // writeback errors this open file has reported
}

var errWriteback = errors.New("writeback failed")

func (f *diskFile) Sync() error {
	d := f.d
	d.mu.Lock()
	d.n++
	n := d.n
	d.mu.Unlock()
	if n == 1 {
		time.Sleep(d.warm)
	} else if n < len(d.gates) {
		g := &d.gates[n]
		close(g.entered)
		<-g.release
		defer close(g.returned)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if f.seen != d.errs {
		f.seen = d.errs
		return errWriteback
	}
	return nil
}

func waitAsync(w func() error) chan error {
	c := make(chan error, 1)
	go func() { c <- w() }()
	return c
}

// TestFailedSyncFailsLaterBatches: batch N's fsync blocks and then fails
// while batch N+1's, started beside it, returns first and succeeds. N+1 must
// not resolve before N, and then fails with N's error — a later fsync's
// success does not prove the earlier bytes durable; the error is sticky,
// no later commit succeeds, and Close waits for both flushes and leaves
// no goroutine behind.
func TestFailedSyncFailsLaterBatches(t *testing.T) {
	base := runtime.NumGoroutine()
	fs := newDiskFS()
	l, err := Open(filepath.Join(t.TempDir(), "wal.log"), -1, Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(commitRecord(1))(); err != nil {
		t.Fatalf("warm-up commit: %v", err)
	}
	first := waitAsync(l.Commit(commitRecord(2)))
	fs.entered(t, 2, "batch N")
	second := waitAsync(l.Commit(commitRecord(3)))
	fs.entered(t, 3, "batch N+1, flushed beside N")
	close(fs.gates[3].release)
	<-fs.gates[3].returned // N+1's fsync succeeded first
	third := waitAsync(l.Commit(commitRecord(4)))
	closed := waitAsync(l.Close)
	time.Sleep(20 * time.Millisecond)
	select {
	case err := <-second:
		t.Fatalf("batch N+1 resolved (%v) while batch N's fsync was still running", err)
	case err := <-closed:
		t.Fatalf("Close returned (%v) with a flush in flight", err)
	default:
	}
	fs.fail()
	close(fs.gates[2].release)
	if err := <-first; !errors.Is(err, errWriteback) {
		t.Errorf("batch N = %v, want errWriteback", err)
	}
	if err := <-second; !errors.Is(err, errWriteback) {
		t.Errorf("batch N+1 = %v, want batch N's errWriteback although its own fsync succeeded", err)
	}
	if err := <-third; err == nil {
		t.Error("a commit after the failed batch succeeded")
	}
	if err := <-closed; !errors.Is(err, errWriteback) {
		t.Errorf("Close = %v, want the sticky errWriteback", err)
	}
	if err := l.Err(); !errors.Is(err, errWriteback) {
		t.Errorf("Err() = %v, want the sticky errWriteback", err)
	}
	if err := l.Commit(commitRecord(5))(); err == nil {
		t.Error("a commit after Close succeeded")
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before Open: the flusher or a syncer outlived the log", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWritebackErrorFailsEveryOverlappingSync: batch N-1's bytes fail to
// reach the disk while its fsync and N's both run, and N's fsync looks
// first. Through one shared descriptor N's would take the error and N-1's
// return success, acknowledging commits that were never persisted; each
// fsync must see the error, so N-1 fails with it, and N after it.
func TestWritebackErrorFailsEveryOverlappingSync(t *testing.T) {
	fs := newDiskFS()
	l, err := Open(filepath.Join(t.TempDir(), "wal.log"), -1, Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Commit(commitRecord(1))(); err != nil {
		t.Fatalf("warm-up commit: %v", err)
	}
	prev := waitAsync(l.Commit(commitRecord(2)))
	fs.entered(t, 2, "batch N-1")
	next := waitAsync(l.Commit(commitRecord(3)))
	fs.entered(t, 3, "batch N, flushed beside N-1")
	fs.fail()
	close(fs.gates[3].release)
	<-fs.gates[3].returned // N's fsync has reported the error
	close(fs.gates[2].release)
	if err := <-prev; !errors.Is(err, errWriteback) {
		t.Errorf("batch N-1 = %v, want errWriteback: its bytes never reached the disk", err)
	}
	if err := <-next; !errors.Is(err, errWriteback) {
		t.Errorf("batch N = %v, want errWriteback", err)
	}
}
