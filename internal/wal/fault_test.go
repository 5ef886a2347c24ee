package wal

import (
	"errors"
	"os"
	"path/filepath"
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
