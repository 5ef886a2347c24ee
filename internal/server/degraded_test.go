package server_test

// Degraded-mode end-to-end: an injected fsync failure mid-load must reach
// the remote client as the typed fail-stop error, reads must keep
// serving, and a restart against repaired storage must recover every
// acknowledged commit. This is DESIGN.md §11 exercised over real TCP.

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"hdd"
	"hdd/internal/core"
	"hdd/internal/server"
	"hdd/internal/vfs"
)

func TestDegradedModeOverTheWire(t *testing.T) {
	dir := t.TempDir()
	fs := vfs.NewFaulty(nil)
	// One-shot fault partway into the load; the engine must latch
	// fail-stop even though later fsyncs would succeed.
	fs.Inject(vfs.Fault{Op: vfs.OpSync, Nth: 6})
	srv, addr := startServer(t, 2, core.Config{
		WallInterval:  2,
		TxnTimeout:    10 * time.Second,
		DataDir:       dir,
		SnapshotBytes: -1,
		FS:            fs,
	}, server.Options{})
	c := dial(t, addr)

	g := hdd.GranuleID{Segment: 0, Key: 1}
	var failErr error
	acked := 0
	for seq := 1; seq <= 50; seq++ {
		tx, err := c.Begin(0)
		if err != nil {
			failErr = err
			break
		}
		if err := tx.Write(g, []byte(fmt.Sprintf("v%02d", seq))); err != nil {
			tx.Abort()
			failErr = err
			break
		}
		if err := tx.Commit(); err != nil {
			failErr = err
			break
		}
		acked = seq
	}
	if failErr == nil {
		t.Fatal("no operation ever failed despite the injected fsync fault")
	}
	if !errors.Is(failErr, hdd.ErrDurabilityFailed) {
		t.Fatalf("mid-load failure = %v, want hdd.ErrDurabilityFailed across the wire", failErr)
	}
	if acked == 0 {
		t.Fatal("expected some commits to ack before the fault")
	}

	// New update transactions are rejected with the same typed error...
	if _, err := c.Begin(0); !errors.Is(err, hdd.ErrDurabilityFailed) {
		t.Fatalf("Begin on degraded server = %v, want hdd.ErrDurabilityFailed", err)
	}
	// ...and hdd.Run stops immediately instead of burning its retry
	// budget: ErrDurabilityFailed is not an abort.
	attempts := 0
	err := hdd.Run(c, 0, func(tx hdd.Txn) error {
		attempts++
		return tx.Write(g, []byte("nope"))
	}, hdd.RetryPolicy{})
	if !errors.Is(err, hdd.ErrDurabilityFailed) {
		t.Fatalf("hdd.Run on degraded server = %v, want hdd.ErrDurabilityFailed", err)
	}
	if attempts != 0 {
		t.Fatalf("hdd.Run made %d attempts; Begin should have refused before fn ran", attempts)
	}

	// Read-only traffic keeps serving on the same server.
	ro, err := c.BeginReadOnly()
	if err != nil {
		t.Fatalf("BeginReadOnly on degraded server: %v", err)
	}
	if _, err := ro.Read(g); err != nil {
		t.Fatalf("Protocol C read on degraded server: %v", err)
	}
	ro.Abort()

	// The degraded state is visible in the Stats opcode.
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st["durability_degraded"] != 1 {
		t.Fatalf("durability_degraded = %d, want 1", st["durability_degraded"])
	}
	if st["durability_failures"] == 0 {
		t.Fatal("durability_failures = 0 on a degraded server")
	}

	// Restart against repaired storage: every acked commit is back and the
	// server takes writes again.
	c.Close()
	srv.Close()
	_, addr2 := startServer(t, 2, core.Config{
		WallInterval:  2,
		TxnTimeout:    10 * time.Second,
		DataDir:       dir,
		SnapshotBytes: -1,
	}, server.Options{})
	c2 := dial(t, addr2)
	st2, err := c2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st2["durability_degraded"] != 0 {
		t.Fatal("recovered server still reports degraded")
	}
	// Class 1 reads segment 0 via Protocol A: no wall to wait for.
	tx, err := c2.Begin(1)
	if err != nil {
		t.Fatal(err)
	}
	v, err := tx.Read(g)
	if err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	var seq int
	if _, err := fmt.Sscanf(string(v), "v%02d", &seq); err != nil || seq < acked {
		t.Fatalf("recovered %q, want at least the last acked v%02d", v, acked)
	}
	// And it accepts new writes.
	tx2, err := c2.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx2.Write(hdd.GranuleID{Segment: 0, Key: 2}, []byte("post-recovery")); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatalf("commit after recovery: %v", err)
	}
}
