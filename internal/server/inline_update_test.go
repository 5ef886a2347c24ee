package server_test

// Tests of update transactions on the inline path (DESIGN.md §15.1): the
// begin, the reads that need not wait, the writes, the abort and the
// start of the commit run on the session goroutine; what must wait — a
// begin behind a checkpoint, a Protocol B read behind a pending version,
// the commit's fsync — leaves it.

import (
	"context"
	"sync"
	"testing"
	"time"

	"hdd"
	"hdd/client"
	"hdd/internal/core"
	"hdd/internal/server"
	"hdd/internal/vfs"
	"hdd/internal/wire"
)

// TestInlineUpdateReadFallsBackToFIFO: a Protocol B read behind a pending
// version would wait, so it takes its transaction's FIFO, and the
// operations pipelined behind it queue there too and are answered in
// order once the writer commits, while the session goroutine keeps
// serving (the Hello and the writer's commit behind them).
func TestInlineUpdateReadFallsBackToFIFO(t *testing.T) {
	_, addr := startServer(t, 2, core.Config{TxnTimeout: 10 * time.Second}, server.Options{})
	c := v2dial(t, addr)
	c.send(&wire.Request{Op: wire.OpBegin, Tag: 1, Class: 0})
	w := c.recv()
	c.send(&wire.Request{Op: wire.OpWrite, Tag: 2, Txn: w.Txn, Key: 1, Value: []byte("pending")},
		&wire.Request{Op: wire.OpBegin, Tag: 3, Class: 0})
	if r := c.recv(); r.Tag != 2 || r.Status != wire.StatusOK {
		t.Fatalf("writer's write: %+v", r)
	}
	r := c.recv()
	if r.Tag != 3 || r.Status != wire.StatusOK {
		t.Fatalf("reader's begin: %+v", r)
	}
	inline := serverStat(t, c, "inline_requests")
	if inline != 3 {
		t.Fatalf("inline_requests = %d after two begins and a write, want 3", inline)
	}

	c.send(
		&wire.Request{Op: wire.OpRead, Tag: 10, Txn: r.Txn, Key: 1},
		&wire.Request{Op: wire.OpWrite, Tag: 11, Txn: r.Txn, Key: 2, Value: []byte("mine")},
		&wire.Request{Op: wire.OpRead, Tag: 12, Txn: r.Txn, Key: 2},
		&wire.Request{Op: wire.OpHello, Tag: 13},
	)
	if hello := c.recv(); hello.Tag != 13 {
		t.Fatalf("first response carries tag %d, want the Hello's 13: the session goroutine waited with the read", hello.Tag)
	}
	if n := serverStat(t, c, "inline_requests"); n != inline {
		t.Fatalf("inline_requests %d -> %d: a read that waits, or an operation behind it, ran inline", inline, n)
	}

	// Commit only once the read waits on the FIFO's goroutine: a commit
	// that overtakes it lets the read find the version committed.
	waitFor(t, 5*time.Second, func() bool { return serverStat(t, c, "blocked_reads") == 1 })
	c.send(&wire.Request{Op: wire.OpCommit, Tag: 20, Txn: w.Txn})
	var order []uint64 // the reader's tags, in the order answered
	for i := 0; i < 4; i++ {
		resp := c.recv()
		if resp.Status != wire.StatusOK {
			t.Fatalf("%+v", resp)
		}
		if resp.Tag == 20 {
			continue
		}
		order = append(order, resp.Tag)
		if want := map[uint64]string{10: "pending", 12: "mine"}[resp.Tag]; string(resp.Value) != want {
			t.Fatalf("tag %d read %q, want %q", resp.Tag, resp.Value, want)
		}
	}
	if len(order) != 3 || order[0] != 10 || order[1] != 11 || order[2] != 12 {
		t.Fatalf("the reader's operations were answered in the order %v, want [10 11 12]", order)
	}
	if n := serverStat(t, c, "blocked_reads"); n != 1 {
		t.Fatalf("blocked_reads = %d, want the one read that waited", n)
	}

	// The FIFO drained: the reader's commit runs inline again (the drainer
	// retires just after its last response, hence the retry).
	waitFor(t, 5*time.Second, func() bool {
		c.send(&wire.Request{Op: wire.OpRead, Tag: 30, Txn: r.Txn, Key: 2})
		c.recv()
		return serverStat(t, c, "inline_requests") > inline+1
	})
	c.send(&wire.Request{Op: wire.OpCommit, Tag: 31, Txn: r.Txn})
	if resp := c.recv(); resp.Tag != 31 || resp.Status != wire.StatusOK {
		t.Fatalf("reader's commit: %+v", resp)
	}
}

// TestInlineBeginBesideCheckpoint: a snapshot is waiting for the class
// gate that an open transaction holds. A begin of that class arriving on
// the same connection would wait for the snapshot, which waits for the
// open transaction's commit queued behind the begin: the begin must leave
// the session goroutine. Then the same under load, with snapshots taken
// in a loop while clients share one connection.
func TestInlineBeginBesideCheckpoint(t *testing.T) {
	srv, addr := startServer(t, 2, core.Config{TxnTimeout: 10 * time.Second, DataDir: t.TempDir(), SnapshotBytes: -1}, server.Options{})
	eng := srv.Engine().(*core.Engine)
	c := v2dial(t, addr)
	c.send(&wire.Request{Op: wire.OpBegin, Tag: 1, Class: 0})
	open := c.recv()
	if open.Status != wire.StatusOK {
		t.Fatalf("begin: %+v", open)
	}

	checkpointed := make(chan error, 1)
	go func() { checkpointed <- eng.Snapshot() }()
	waitFor(t, 5*time.Second, func() bool { // until the snapshot waits for the gate
		txn, ok, err := eng.TryBegin(0)
		if ok && err == nil {
			txn.Abort()
		}
		return !ok
	})
	inline := serverStat(t, c, "inline_requests")
	c.send(
		&wire.Request{Op: wire.OpBegin, Tag: 2, Class: 0},
		&wire.Request{Op: wire.OpWrite, Tag: 3, Txn: open.Txn, Key: 1, Value: []byte("v")},
		&wire.Request{Op: wire.OpCommit, Tag: 4, Txn: open.Txn},
	)
	var begun wire.Response
	for i := 0; i < 3; i++ {
		resp := c.recv()
		if resp.Status != wire.StatusOK {
			t.Fatalf("%+v", resp)
		}
		if resp.Tag == 2 {
			begun = resp
		}
	}
	select {
	case err := <-checkpointed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the snapshot never finished")
	}
	if n := serverStat(t, c, "inline_requests"); n != inline+2 {
		t.Fatalf("inline_requests %d -> %d, want the write and the commit only", inline, n)
	}
	c.send(&wire.Request{Op: wire.OpCommit, Tag: 5, Txn: begun.Txn})
	if resp := c.recv(); resp.Tag != 5 || resp.Status != wire.StatusOK {
		t.Fatalf("commit of the begin that waited: %+v", resp)
	}

	// Under load: four clients' transactions share one connection while
	// snapshots come and go.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	shared := dial(t, addr, client.WithConns(1))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 5)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				cls, key := hdd.ClassID(w%2), uint64(w*8+i%8) // no two workers write one key
				err := hdd.RunCtx(ctx, shared, cls, func(tx hdd.Txn) error {
					if cls == 1 {
						if _, err := tx.Read(hdd.GranuleID{Segment: 0, Key: key}); err != nil {
							return err
						}
					}
					return tx.Write(hdd.GranuleID{Segment: hdd.SegmentID(cls), Key: key}, []byte("x"))
				}, hdd.RetryPolicy{})
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	for i := 0; i < 50 && ctx.Err() == nil; i++ {
		if err := eng.Snapshot(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("a transaction beside the snapshots: %v", err)
	}
	if ctx.Err() != nil {
		t.Fatal("the load beside the snapshots did not finish in time")
	}
}

// TestInlineCommitDurabilityFailed: a commit that ran inline and whose
// fsync fails reaches the client as the typed StatusDurabilityFailed.
func TestInlineCommitDurabilityFailed(t *testing.T) {
	fs := vfs.NewFaulty(nil)
	fs.Inject(vfs.Fault{Op: vfs.OpSync, Nth: 4})
	_, addr := startServer(t, 2, core.Config{
		TxnTimeout:    10 * time.Second,
		DataDir:       t.TempDir(),
		SnapshotBytes: -1,
		FS:            fs,
	}, server.Options{})
	c := v2dial(t, addr)
	for seq := uint64(1); seq <= 50; seq++ {
		inline := serverStat(t, c, "inline_requests")
		c.send(&wire.Request{Op: wire.OpBegin, Tag: 1, Class: 0})
		begun := c.recv()
		if begun.Status == wire.StatusDurabilityFailed {
			t.Fatalf("begin %d refused before any commit failed: %+v", seq, begun)
		}
		c.send(&wire.Request{Op: wire.OpWrite, Tag: 2, Txn: begun.Txn, Key: seq, Value: []byte("v")},
			&wire.Request{Op: wire.OpCommit, Tag: 3, Txn: begun.Txn})
		if resp := c.recv(); resp.Tag != 2 || resp.Status != wire.StatusOK {
			t.Fatalf("write %d: %+v", seq, resp)
		}
		commit := c.recv()
		if n := serverStat(t, c, "inline_requests"); n != inline+3 {
			t.Fatalf("commit %d: inline_requests %d -> %d, want begin, write and commit inline", seq, inline, n)
		}
		switch commit.Status {
		case wire.StatusOK:
			continue
		case wire.StatusDurabilityFailed:
			if seq == 1 {
				t.Fatal("the first commit failed: nothing was acknowledged before the fault")
			}
			c.send(&wire.Request{Op: wire.OpBegin, Tag: 4, Class: 0})
			if resp := c.recv(); resp.Status != wire.StatusDurabilityFailed {
				t.Fatalf("begin after the failed commit: %+v, want StatusDurabilityFailed", resp)
			}
			return
		default:
			t.Fatalf("commit %d: %+v, want OK or StatusDurabilityFailed", seq, commit)
		}
	}
	t.Fatal("no commit failed despite the injected fsync fault")
}
