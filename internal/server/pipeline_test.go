package server_test

// End-to-end tests of the pipelined service path (DESIGN.md §15): many
// concurrent transactions multiplexed over a small connection set,
// out-of-order responses, batched operations, orphan cleanup when a
// pipelined client vanishes, and the rejection of version-1 frames.
// Everything here runs under -race in CI (make check).

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"hdd"
	"hdd/client"
	"hdd/internal/core"
	"hdd/internal/server"
	"hdd/internal/wire"
)

// TestPipelinedSessionTorture hammers one multiplexed client from many
// goroutines: interleaved update transactions, read-only transactions,
// explicit aborts, and batches, all tag-demultiplexed over two shared
// connections. The assertions are the boring ones that matter — every
// response routed to the right caller (values round-trip), and nothing
// leaks (txns_open drains to zero).
func TestPipelinedSessionTorture(t *testing.T) {
	srv, addr := startServer(t, 3, core.Config{WallInterval: 4, TxnTimeout: 10 * time.Second}, server.Options{})
	c := dial(t, addr, client.WithConns(2))

	const (
		workers   = 8
		perWorker = 20
		keySpan   = 8
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				cls := hdd.ClassID(i % 2)
				key := uint64((w*perWorker + i) % keySpan)
				val := []byte(fmt.Sprintf("w%d-i%d", w, i))
				// Update transaction through the retry runner.
				err := hdd.Run(c, cls, func(tx hdd.Txn) error {
					if cls > 0 {
						if _, err := tx.Read(hdd.GranuleID{Segment: 0, Key: key}); err != nil {
							return err
						}
					}
					return tx.Write(hdd.GranuleID{Segment: hdd.SegmentID(cls), Key: key}, val)
				}, hdd.RetryPolicy{MaxAttempts: 50})
				if err != nil {
					errs <- fmt.Errorf("worker %d update %d: %w", w, i, err)
					return
				}
				// Explicit abort: begin, write, walk away loudly.
				tx, err := c.Begin(cls)
				if err != nil {
					errs <- fmt.Errorf("worker %d abort-txn begin: %w", w, err)
					return
				}
				if err := tx.Write(hdd.GranuleID{Segment: hdd.SegmentID(cls), Key: key}, []byte("doomed")); err == nil {
					if err := tx.Abort(); err != nil {
						errs <- fmt.Errorf("worker %d abort: %w", w, err)
						return
					}
				} else {
					tx.Abort()
				}
				// Read-only transaction over the shared conns.
				err = hdd.Run(c, hdd.NoClass, func(tx hdd.Txn) error {
					if _, err := tx.Read(hdd.GranuleID{Segment: 0, Key: key}); err != nil {
						return err
					}
					_, err := tx.Read(hdd.GranuleID{Segment: 1, Key: key})
					return err
				}, hdd.RetryPolicy{})
				if err != nil {
					errs <- fmt.Errorf("worker %d read-only %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Batched read-your-writes on one transaction, same client.
	btx, err := c.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	tx := btx.(*client.Txn)
	var b client.Batch
	for k := uint64(0); k < 4; k++ {
		b.Write(hdd.GranuleID{Segment: 0, Key: 100 + k}, []byte(fmt.Sprintf("batch%d", k)))
	}
	for k := uint64(0); k < 4; k++ {
		b.Read(hdd.GranuleID{Segment: 0, Key: 100 + k})
	}
	res, err := tx.Do(&b)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 4; k++ {
		r := res[4+k]
		if !r.Found || string(r.Value) != fmt.Sprintf("batch%d", k) {
			t.Fatalf("batch read %d: found=%v value=%q", k, r.Found, r.Value)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats["txns_open"] != 0 {
		t.Fatalf("txns_open = %d after the torture drained", stats["txns_open"])
	}
	if stats["writer_flushes"] < 1 || stats["flushed_frames"] < stats["writer_flushes"] {
		t.Fatalf("writer accounting not wired: flushes=%d frames=%d",
			stats["writer_flushes"], stats["flushed_frames"])
	}
	if n := srv.OpenTxns(); n != 0 {
		t.Fatalf("server reports %d open txns", n)
	}
}

// TestPipelineOrphanDisconnect kills a multiplexed client mid-pipeline —
// transactions open, operations in flight — and asserts the server's
// session teardown force-aborts everything the session owned.
func TestPipelineOrphanDisconnect(t *testing.T) {
	srv, addr := startServer(t, 2, core.Config{TxnTimeout: 30 * time.Second}, server.Options{})
	c := dial(t, addr, client.WithConns(2))

	const open = 6
	txns := make([]hdd.Txn, 0, open)
	for i := 0; i < open; i++ {
		tx, err := c.Begin(hdd.ClassID(i % 2))
		if err != nil {
			t.Fatal(err)
		}
		g := hdd.GranuleID{Segment: hdd.SegmentID(i % 2), Key: uint64(i)}
		if err := tx.Write(g, []byte("orphaned")); err != nil {
			t.Fatal(err)
		}
		txns = append(txns, tx)
	}
	if n := srv.OpenTxns(); n != open {
		t.Fatalf("server reports %d open txns before disconnect, want %d", n, open)
	}

	// Keep operations in flight while the client dies under them: the
	// session must quiesce its pipeline, then reap. Errors are expected
	// here — the connection is being yanked.
	var wg sync.WaitGroup
	for _, tx := range txns {
		wg.Add(1)
		go func(tx hdd.Txn) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if _, err := tx.Read(hdd.GranuleID{Segment: 0, Key: uint64(j)}); err != nil {
					return
				}
			}
		}(tx)
	}
	c.Close()
	wg.Wait()

	deadline := time.Now().Add(5 * time.Second)
	for srv.OpenTxns() != 0 || engineActiveTxns(t, srv) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("after disconnect: %d wire txns, %d engine txns still open",
				srv.OpenTxns(), engineActiveTxns(t, srv))
		}
		time.Sleep(10 * time.Millisecond)
	}
	if srv.ForcedAborts() < open {
		t.Fatalf("forced aborts = %d, want >= %d", srv.ForcedAborts(), open)
	}
}

// TestOutOfOrderResponses proves the pipelining claim at the byte level:
// on one v2 connection, a request that blocks server-side (a Protocol B
// read of a granule a sibling transaction holds pending) is overtaken by a
// later request's response. Tags are what keep the demux sound, so the test
// asserts on them directly.
func TestOutOfOrderResponses(t *testing.T) {
	_, addr := startServer(t, 2, core.Config{TxnTimeout: 30 * time.Second}, server.Options{})

	// An older class 0 transaction holds a pending version of the granule
	// the raw conn's read must wait on.
	holder := dial(t, addr)
	htx, err := holder.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := htx.Write(hdd.GranuleID{Segment: 0, Key: 1}, []byte("held")); err != nil {
		t.Fatal(err)
	}

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)
	send := func(req *wire.Request) {
		t.Helper()
		if err := writeFrame(nc, wire.AppendRequest2(nil, req)); err != nil {
			t.Fatal(err)
		}
	}
	recv := func() (uint64, []byte) {
		t.Helper()
		nc.SetReadDeadline(time.Now().Add(10 * time.Second))
		payload, err := wire.ReadFrame(br, nil)
		if err != nil {
			t.Fatal(err)
		}
		tag, err := wire.ResponseTag(payload)
		if err != nil {
			t.Fatal(err)
		}
		return tag, payload
	}

	send(&wire.Request{Op: wire.OpBegin, Tag: 1, Class: 0})
	tag, payload := recv()
	begun, err := wire.DecodeResponse2(wire.OpBegin, payload)
	if err != nil {
		t.Fatal(err)
	}
	if tag != 1 || begun.Status != wire.StatusOK {
		t.Fatalf("begin answered with tag %d: %+v", tag, begun)
	}
	send(&wire.Request{Op: wire.OpRead, Tag: 2, Txn: begun.Txn, Seg: 0, Key: 1})
	send(&wire.Request{Op: wire.OpHello, Tag: 3})

	tag, payload = recv()
	if tag != 3 {
		t.Fatalf("first response carries tag %d, want 3 (Hello overtaking the blocked read)", tag)
	}
	hello, err := wire.DecodeResponse2(wire.OpHello, payload)
	if err != nil {
		t.Fatal(err)
	}
	if hello.Status != wire.StatusOK || hello.EngineName == "" {
		t.Fatalf("hello response: %+v", hello)
	}

	// Commit the holder; the blocked read completes and answers with its
	// write.
	if err := htx.Commit(); err != nil {
		t.Fatal(err)
	}
	tag, payload = recv()
	if tag != 2 {
		t.Fatalf("second response carries tag %d, want 2", tag)
	}
	read, err := wire.DecodeResponse2(wire.OpRead, payload)
	if err != nil {
		t.Fatal(err)
	}
	if read.Status != wire.StatusOK || string(read.Value) != "held" {
		t.Fatalf("read after release: %+v", read)
	}
	// Tidy: abort the transaction so teardown has nothing to reap.
	send(&wire.Request{Op: wire.OpAbort, Tag: 4, Txn: begun.Txn})
	if tag, _ = recv(); tag != 4 {
		t.Fatalf("abort answered with tag %d, want 4", tag)
	}
}

// expectV1Rejected sends one version-1 payload and requires the server's
// whole answer to be one StatusError frame — encoded as version 2, tag 0,
// naming the offending version — followed by a clean close.
func expectV1Rejected(t *testing.T, nc net.Conn, br *bufio.Reader, v1 []byte) {
	t.Helper()
	if err := writeFrame(nc, v1); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	payload, err := wire.ReadFrame(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := wire.DecodeResponse2(0, payload)
	if err != nil {
		t.Fatalf("rejection is not a version-2 frame: %v (% x)", err, payload)
	}
	if resp.Status != wire.StatusError || resp.Tag != 0 || !strings.Contains(resp.Message, "version 1") {
		t.Fatalf("rejection: %+v", resp)
	}
	if _, err := wire.ReadFrame(br, nil); err != io.EOF {
		t.Fatalf("after the rejection: %v, want EOF", err)
	}
}

// TestV1ClientAgainstV2Server sends, as a session's first frame, the exact
// bytes a client of the retired version 1 would: the server answers each
// with one error frame and hangs up, and no transaction is left behind.
func TestV1ClientAgainstV2Server(t *testing.T) {
	srv, addr := startServer(t, 2, core.Config{}, server.Options{})
	for name, frame := range map[string][]byte{
		"hello": {1, 9},
		// Write, txn 99, segment 0, key 0, empty value.
		"write": {1, 5, 0, 0, 0, 0, 0, 0, 0, 99, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
	} {
		t.Run(name, func(t *testing.T) {
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			expectV1Rejected(t, nc, bufio.NewReader(nc), frame)
		})
	}
	if n := srv.OpenTxns(); n != 0 {
		t.Fatalf("server reports %d open txns after the rejected sessions", n)
	}
}

// TestVersionDowngradeRejected: a session that has been speaking version 2
// gets the same answer when a version-1 frame turns up mid-stream.
func TestVersionDowngradeRejected(t *testing.T) {
	_, addr := startServer(t, 2, core.Config{}, server.Options{})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)

	if err := writeFrame(nc, wire.AppendRequest2(nil, &wire.Request{Op: wire.OpHello, Tag: 1})); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	payload, err := wire.ReadFrame(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tag, _ := wire.ResponseTag(payload); tag != 1 {
		t.Fatalf("hello tag = %d", tag)
	}
	expectV1Rejected(t, nc, br, []byte{1, 9})
}

// TestBatchSemanticsOverWire pins OpBatch's contract end to end: ordered
// execution, read-only transactions batch too, and a mid-batch failure
// reports the failing index while earlier operations stay applied.
func TestBatchSemanticsOverWire(t *testing.T) {
	_, addr := startServer(t, 2, core.Config{WallInterval: 2, TxnTimeout: 10 * time.Second}, server.Options{})
	c := dial(t, addr)

	// Seed through a batch, read back through a batch on the same txn.
	btx, err := c.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	tx := btx.(*client.Txn)
	var b client.Batch
	b.Write(hdd.GranuleID{Segment: 0, Key: 1}, []byte("one"))
	b.Write(hdd.GranuleID{Segment: 0, Key: 2}, []byte("two"))
	b.Read(hdd.GranuleID{Segment: 0, Key: 1})
	b.Read(hdd.GranuleID{Segment: 0, Key: 999}) // never written
	res, err := tx.Do(&b)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("batch returned %d results", len(res))
	}
	if !res[2].Found || string(res[2].Value) != "one" {
		t.Fatalf("batch read-your-write: %+v", res[2])
	}
	if res[3].Found {
		t.Fatalf("missing granule reported found: %+v", res[3])
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Mid-batch failure: a write inside a read-only transaction fails at
	// its index; the batch errors as one unit.
	ro, err := c.BeginReadOnly()
	if err != nil {
		t.Fatal(err)
	}
	rot, ok := ro.(*client.Txn)
	if !ok {
		t.Fatalf("BeginReadOnly returned %T", ro)
	}
	b.Reset()
	b.Read(hdd.GranuleID{Segment: 0, Key: 1})
	b.Write(hdd.GranuleID{Segment: 0, Key: 1}, []byte("nope"))
	if _, err := rot.Do(&b); err == nil || !strings.Contains(err.Error(), "batch op 1") {
		t.Fatalf("read-only batch write: %v, want a 'batch op 1' error", err)
	}
	ro.Abort()

	// Batch against an unknown transaction id is the usual typed error.
	b.Reset()
	b.Read(hdd.GranuleID{Segment: 0, Key: 1})
	tx2, err := c.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	t2, _ := tx2.(*client.Txn)
	if _, err := t2.Do(&b); err == nil {
		t.Fatal("batch on a finished transaction succeeded")
	}
}
