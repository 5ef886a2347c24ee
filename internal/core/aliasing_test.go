package core

import (
	"testing"

	"hdd/internal/cc"
	"hdd/internal/schema"
)

// readAndMutate reads g twice, scribbling over the first returned buffer in
// between, and fails the test if the mutation leaked into the second read —
// i.e. if Read handed out a buffer aliasing engine-owned memory.
func readAndMutate(t *testing.T, txn cc.Txn, g schema.GranuleID, want string) {
	t.Helper()
	first, err := txn.Read(g)
	if err != nil {
		t.Fatalf("first read of %v: %v", g, err)
	}
	if string(first) != want {
		t.Fatalf("read %q, want %q", first, want)
	}
	for i := range first {
		first[i] = '#'
	}
	second, err := txn.Read(g)
	if err != nil {
		t.Fatalf("second read of %v: %v", g, err)
	}
	if string(second) != want {
		t.Fatalf("mutating a returned buffer corrupted the store: read %q, want %q", second, want)
	}
}

// TestReadBuffersAreCallerOwned covers every read path the engine serves:
// Protocol A (upward cross-segment), Protocol B (own root segment),
// read-your-own-writes, Protocol C (wall reads) and path read-only — each
// must return a defensive copy.
func TestReadBuffersAreCallerOwned(t *testing.T) {
	e, err := NewEngine(Config{Partition: twoLevel(t), WallInterval: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	seed, err := e.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	write(t, seed, gr(0, 1), "upper")
	mustCommit(t, seed)
	seed2, err := e.Begin(1)
	if err != nil {
		t.Fatal(err)
	}
	write(t, seed2, gr(1, 1), "lower")
	mustCommit(t, seed2)

	t.Run("protocol A", func(t *testing.T) {
		txn, err := e.Begin(1) // class 1 reads segment 0 upward
		if err != nil {
			t.Fatal(err)
		}
		readAndMutate(t, txn, gr(0, 1), "upper")
		mustCommit(t, txn)
	})

	t.Run("protocol B", func(t *testing.T) {
		txn, err := e.Begin(0) // root-segment registered read
		if err != nil {
			t.Fatal(err)
		}
		readAndMutate(t, txn, gr(0, 1), "upper")
		mustCommit(t, txn)
	})

	t.Run("read own writes", func(t *testing.T) {
		txn, err := e.Begin(0)
		if err != nil {
			t.Fatal(err)
		}
		write(t, txn, gr(0, 2), "mine")
		readAndMutate(t, txn, gr(0, 2), "mine")
		// The pending version must also be intact at commit.
		mustCommit(t, txn)
		check, err := e.Begin(0)
		if err != nil {
			t.Fatal(err)
		}
		readAndMutate(t, check, gr(0, 2), "mine")
		mustCommit(t, check)
	})

	t.Run("protocol C", func(t *testing.T) {
		e.Walls().Force() // wall above both seeded commits
		txn, err := e.BeginReadOnly()
		if err != nil {
			t.Fatal(err)
		}
		readAndMutate(t, txn, gr(0, 1), "upper")
		readAndMutate(t, txn, gr(1, 1), "lower")
		mustCommit(t, txn)
	})

	t.Run("path read-only", func(t *testing.T) {
		txn, err := e.BeginReadOnlyOnPath(1)
		if err != nil {
			t.Fatal(err)
		}
		readAndMutate(t, txn, gr(0, 1), "upper")
		mustCommit(t, txn)
	})
}

// TestWriteBufferNotRetained: the engine must copy the value passed to
// Write — the caller is free to reuse its buffer immediately.
func TestWriteBufferNotRetained(t *testing.T) {
	e, err := NewEngine(Config{Partition: twoLevel(t), WallInterval: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	buf := []byte("first")
	txn, err := e.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Write(gr(0, 1), buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "XXXXX") // caller reuses its buffer before commit
	mustCommit(t, txn)

	check, err := e.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := read(t, check, gr(0, 1)); got != "first" {
		t.Fatalf("stored value aliases the caller's buffer: read %q, want %q", got, "first")
	}
	mustCommit(t, check)

	// Overwriting a pending version (UpdatePending path) must copy too.
	txn2, err := e.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	buf2 := []byte("aaaa")
	if err := txn2.Write(gr(0, 1), buf2); err != nil {
		t.Fatal(err)
	}
	buf3 := []byte("bbbb")
	if err := txn2.Write(gr(0, 1), buf3); err != nil {
		t.Fatal(err)
	}
	copy(buf3, "ZZZZ")
	mustCommit(t, txn2)
	check2, err := e.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := read(t, check2, gr(0, 1)); got != "bbbb" {
		t.Fatalf("pending rewrite aliases the caller's buffer: read %q, want %q", got, "bbbb")
	}
	mustCommit(t, check2)
}
