package server_test

// End-to-end tests of the networked service: a real TCP loopback listener,
// the public client package on one side and the engine on the other.
// Everything here runs under -race in CI (make check).

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"hdd"
	"hdd/client"
	"hdd/internal/cc"
	"hdd/internal/core"
	"hdd/internal/schema"
	"hdd/internal/server"
	"hdd/internal/wire"
)

// chainPartition mirrors cmd/hddserver's topology: class i writes segment
// i and reads everything below.
func chainPartition(t testing.TB, k int) *schema.Partition {
	t.Helper()
	names := make([]string, k)
	specs := make([]schema.ClassSpec, k)
	for i := 0; i < k; i++ {
		names[i] = fmt.Sprintf("seg%d", i)
		var reads []schema.SegmentID
		for j := 0; j < i; j++ {
			reads = append(reads, schema.SegmentID(j))
		}
		specs[i] = schema.ClassSpec{Name: fmt.Sprintf("class%d", i),
			Writes: schema.SegmentID(i), Reads: reads}
	}
	part, err := schema.NewPartition(names, specs)
	if err != nil {
		t.Fatal(err)
	}
	return part
}

// startServer spins up an engine + server on a loopback listener and
// returns the server and its address. The server (and engine) are torn
// down in cleanup unless the test shut them down itself.
func startServer(t testing.TB, classes int, cfg core.Config, opts server.Options) (*server.Server, string) {
	t.Helper()
	cfg.Partition = chainPartition(t, classes)
	eng, err := core.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(eng, opts)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve returned %v", err)
		}
	})
	return srv, l.Addr().String()
}

// engineActiveTxns reaches the served engine's active-txns capability; the
// engines these tests serve all back it.
func engineActiveTxns(t *testing.T, srv *server.Server) int {
	t.Helper()
	a, ok := cc.AsActiveTxnCounter(srv.Engine())
	if !ok {
		t.Fatal("served engine lacks the active-txns capability")
	}
	return a.ActiveTxns()
}

func dial(t *testing.T, addr string, opts ...client.Option) *client.Client {
	t.Helper()
	c, err := client.Dial(addr, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestEndToEndMixedWorkload drives update transactions across two classes
// plus wall-bounded read-only transactions through the unchanged hdd.Run
// retry loop, concurrently, and checks both the data and the drain.
func TestEndToEndMixedWorkload(t *testing.T) {
	srv, addr := startServer(t, 3, core.Config{WallInterval: 4, TxnTimeout: 10 * time.Second}, server.Options{})

	const (
		workers   = 4
		perWorker = 25
		keySpan   = 8
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < perWorker; i++ {
				cls := hdd.ClassID(i % 2) // classes 0 and 1
				key := uint64(i % keySpan)
				val := []byte(fmt.Sprintf("w%d-i%d", w, i))
				err := hdd.Run(c, cls, func(tx hdd.Txn) error {
					if cls > 0 {
						// Protocol A read from the segment below.
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
				// Protocol C read-only across both touched segments.
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

	// A fresh read-only transaction sees committed data below the wall
	// once enough ticks have passed; just verify a plain read round-trips
	// through an update transaction's own root.
	c := dial(t, addr)
	tx, err := c.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	g := hdd.GranuleID{Segment: 0, Key: 0}
	if err := tx.Write(g, []byte("final")); err != nil {
		t.Fatal(err)
	}
	got, err := tx.Read(g)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "final" {
		t.Fatalf("read-your-writes over the wire: got %q", got)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	minCommits := int64(workers*perWorker*2 + 1)
	if stats["commits"] < minCommits {
		t.Fatalf("commits = %d, want >= %d", stats["commits"], minCommits)
	}
	if stats["commit_count"] < 1 || stats["commit_mean_ns"] <= 0 {
		t.Fatalf("commit histogram not wired: count=%d mean=%d",
			stats["commit_count"], stats["commit_mean_ns"])
	}
	if stats["read_count"] < 1 {
		t.Fatalf("read histogram not wired: count=%d", stats["read_count"])
	}
	if stats["txns_open"] != 0 {
		t.Fatalf("txns_open = %d after all commits", stats["txns_open"])
	}
	if n := srv.OpenTxns(); n != 0 {
		t.Fatalf("server reports %d open txns", n)
	}
}

// TestAbortPropagation forces a Protocol B write rejection and checks the
// client observes a real abort — hdd.IsAbort true — and that the unchanged
// retry loop then succeeds with a fresh transaction.
func TestAbortPropagation(t *testing.T) {
	_, addr := startServer(t, 2, core.Config{TxnTimeout: 10 * time.Second}, server.Options{})
	c := dial(t, addr)

	g := hdd.GranuleID{Segment: 0, Key: 7}
	older, err := c.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	younger, err := c.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	// The younger transaction registers a read of g, then resolves.
	if _, err := younger.Read(g); err != nil {
		t.Fatal(err)
	}
	if err := younger.Commit(); err != nil {
		t.Fatal(err)
	}
	// The older transaction's write now arrives behind that read: MVTO
	// rejects it and the engine aborts the transaction.
	err = older.Write(g, []byte("too late"))
	if err == nil {
		t.Fatal("write behind a younger registered read succeeded, want abort")
	}
	if !hdd.IsAbort(err) {
		t.Fatalf("hdd.IsAbort(%v) = false across the wire", err)
	}
	if err := older.Abort(); err != nil {
		t.Fatalf("Abort after engine abort: %v", err)
	}

	// The standard retry loop recovers with a fresh transaction.
	if err := hdd.Run(c, 0, func(tx hdd.Txn) error {
		return tx.Write(g, []byte("retried"))
	}, hdd.RetryPolicy{}); err != nil {
		t.Fatalf("hdd.Run after abort: %v", err)
	}
}

// TestOrphanedConnectionForceAbort kills a client mid-transaction — the
// acceptance scenario — while the orphan holds a pending version that a
// later Protocol B read of the same granule must wait on. The session
// teardown must force-abort it so that read returns promptly, not after
// the reap interval.
func TestOrphanedConnectionForceAbort(t *testing.T) {
	srv, addr := startServer(t, 2, core.Config{TxnTimeout: time.Minute}, server.Options{})

	// Speak the wire protocol directly so nothing in the client tidies up
	// behind our back.
	rc := rawDial(t, addr)
	resp := rc.roundTrip(&wire.Request{Op: wire.OpBegin, Class: 0})
	if resp.Status != wire.StatusOK {
		t.Fatalf("begin: %+v", resp)
	}
	w := rc.roundTrip(&wire.Request{Op: wire.OpWrite, Txn: resp.Txn, Seg: 0, Key: 1, Value: []byte("orphaned")})
	if w.Status != wire.StatusOK {
		t.Fatalf("write: %+v", w)
	}
	if n := engineActiveTxns(t, srv); n != 1 {
		t.Fatalf("ActiveTxns = %d with the orphan open", n)
	}

	// Kill the client. No Abort was ever sent.
	rc.nc.Close()

	// A younger transaction's Protocol B read of the orphan's granule
	// blocks on its pending version until the session teardown
	// force-aborts the orphan, and must then return promptly.
	c := dial(t, addr, client.WithRequestTimeout(5*time.Second))
	start := time.Now()
	tx, err := c.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tx.Read(hdd.GranuleID{Segment: 0, Key: 1})
	if err != nil {
		t.Fatalf("read behind the orphaned write: %v", err)
	}
	if got != nil {
		t.Fatalf("read %q; the orphan's write must not be visible", got)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if waited := time.Since(start); waited > 3*time.Second {
		t.Fatalf("read took %v; orphan cleanup should not wait for the reaper deadline", waited)
	}

	waitFor(t, time.Second, func() bool { return engineActiveTxns(t, srv) == 0 })
	if srv.ForcedAborts() < 1 {
		t.Fatalf("ForcedAborts = %d, want >= 1", srv.ForcedAborts())
	}
	if reaped := srv.Engine().Stats().ReapedTxns; reaped < 1 {
		t.Fatalf("ReapedTxns = %d; orphan cleanup must reuse reaper semantics", reaped)
	}
}

// rawConn speaks the wire protocol directly over one connection, one
// request at a time, so a test controls exactly which transactions a
// session holds and when the connection dies (the client redials and
// aborts behind a test's back).
type rawConn struct {
	t   *testing.T
	nc  net.Conn
	br  *bufio.Reader
	tag uint64
}

func rawDial(t *testing.T, addr string) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &rawConn{t: t, nc: nc, br: bufio.NewReader(nc)}
}

// writeFrame sends payload as one frame on nc.
func writeFrame(nc net.Conn, payload []byte) error {
	w := bufio.NewWriter(nc)
	if err := wire.WriteFrame(w, payload); err != nil {
		return err
	}
	return w.Flush()
}

func (r *rawConn) roundTrip(req *wire.Request) wire.Response {
	r.t.Helper()
	r.tag++
	req.Tag = r.tag
	if err := writeFrame(r.nc, wire.AppendRequest2(nil, req)); err != nil {
		r.t.Fatalf("sending %v: %v", req.Op, err)
	}
	payload, err := wire.ReadFrame(r.br, nil)
	if err != nil {
		r.t.Fatalf("awaiting %v response: %v", req.Op, err)
	}
	resp, err := wire.DecodeResponse2(req.Op, payload)
	if err != nil {
		r.t.Fatal(err)
	}
	if resp.Tag != req.Tag {
		r.t.Fatalf("%v answered with tag %d, sent %d", req.Op, resp.Tag, req.Tag)
	}
	return resp
}

// TestGracefulShutdownDrains shuts the server down while a session has a
// transaction in flight: the drain must reject new transactions on that
// session with StatusEngineClosed, let the in-flight one commit, then
// close everything including the engine.
func TestGracefulShutdownDrains(t *testing.T) {
	srv, addr := startServer(t, 2, core.Config{TxnTimeout: 30 * time.Second}, server.Options{})
	rc := rawDial(t, addr)

	begin := rc.roundTrip(&wire.Request{Op: wire.OpBegin, Class: 0})
	if begin.Status != wire.StatusOK {
		t.Fatalf("begin: %+v", begin)
	}
	w := rc.roundTrip(&wire.Request{Op: wire.OpWrite, Txn: begin.Txn, Seg: 0, Key: 1, Value: []byte("in-flight")})
	if w.Status != wire.StatusOK {
		t.Fatalf("write: %+v", w)
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()

	// Once draining, new Begin requests on the still-open session answer
	// StatusEngineClosed (aborting any that sneak in before the drain flag
	// flips, so the session's transaction count stays honest).
	waitFor(t, 5*time.Second, func() bool {
		resp := rc.roundTrip(&wire.Request{Op: wire.OpBegin, Class: 0})
		if resp.Status == wire.StatusOK {
			rc.roundTrip(&wire.Request{Op: wire.OpAbort, Txn: resp.Txn})
			return false
		}
		return resp.Status == wire.StatusEngineClosed
	})

	// The in-flight transaction still commits over the draining session.
	if resp := rc.roundTrip(&wire.Request{Op: wire.OpCommit, Txn: begin.Txn}); resp.Status != wire.StatusOK {
		t.Fatalf("in-flight commit during drain: %+v", resp)
	}

	select {
	case err := <-shutdownDone:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not return after the in-flight transaction finished")
	}
	if n := srv.OpenSessions(); n != 0 {
		t.Fatalf("OpenSessions = %d after shutdown", n)
	}
	if _, err := srv.Engine().Begin(0); !errors.Is(err, hdd.ErrEngineClosed) {
		t.Fatalf("engine Begin after shutdown: %v, want ErrEngineClosed", err)
	}
}

// TestShutdownDeadlineForceAborts verifies the other drain arm: when the
// context expires first, straggler sessions are force-closed and their
// transactions force-aborted instead of wedging shutdown.
func TestShutdownDeadlineForceAborts(t *testing.T) {
	srv, addr := startServer(t, 2, core.Config{TxnTimeout: time.Minute}, server.Options{})
	c := dial(t, addr)

	tx, err := c.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(hdd.GranuleID{Segment: 0, Key: 2}, []byte("straggler")); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	err = srv.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded (straggler was open)", err)
	}
	if n := srv.OpenSessions(); n != 0 {
		t.Fatalf("OpenSessions = %d after forced shutdown", n)
	}
	if n := engineActiveTxns(t, srv); n != 0 {
		t.Fatalf("ActiveTxns = %d after forced shutdown", n)
	}
	if reaped := srv.Engine().Stats().ReapedTxns; reaped < 1 {
		t.Fatalf("ReapedTxns = %d, want >= 1", reaped)
	}
}

// TestRunCtxCancelAgainstServer checks the context-aware retry runner
// against a remote engine: a cancelled context stops the loop mid-backoff.
func TestRunCtxCancelAgainstServer(t *testing.T) {
	_, addr := startServer(t, 2, core.Config{TxnTimeout: 10 * time.Second}, server.Options{})
	c := dial(t, addr)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := hdd.RunCtx(ctx, c, 0, func(tx hdd.Txn) error {
		// Always abort so the loop would otherwise retry indefinitely.
		return &cc.AbortError{Reason: cc.ReasonUserAbort, Err: errors.New("synthetic")}
	}, hdd.RetryPolicy{MaxAttempts: -1, BaseDelay: 500 * time.Millisecond, MaxDelay: 5 * time.Second})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx = %v, want context.Canceled", err)
	}
	if waited := time.Since(start); waited > 3*time.Second {
		t.Fatalf("RunCtx took %v to observe cancellation", waited)
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClientCloseAbortsOpenTxn closes a Client while one of its
// transactions is still open: Close drops every connection, so the server
// force-aborts the transaction immediately rather than leaving it to the
// engine's deadline reaper.
func TestClientCloseAbortsOpenTxn(t *testing.T) {
	srv, addr := startServer(t, 2, core.Config{TxnTimeout: time.Minute}, server.Options{})

	c := dial(t, addr)
	tx, err := c.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	g := hdd.GranuleID{Segment: 0, Key: 5}
	if err := tx.Write(g, []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Server-side cleanup is prompt — nowhere near the 1-minute deadline.
	waitFor(t, 5*time.Second, func() bool {
		return engineActiveTxns(t, srv) == 0
	})
	if n := srv.ForcedAborts(); n < 1 {
		t.Fatalf("ForcedAborts = %d, want >= 1", n)
	}

	// The abandoned write is invisible and the granule still writable.
	c2 := dial(t, addr)
	if err := hdd.Run(c2, 0, func(txn hdd.Txn) error {
		v, err := txn.Read(g)
		if err != nil {
			return err
		}
		if v != nil {
			t.Errorf("aborted write visible: %q", v)
		}
		return txn.Write(g, []byte("alive"))
	}, hdd.RetryPolicy{}); err != nil {
		t.Fatal(err)
	}
}
