package server_test

// Tests of the inline path (DESIGN.md §15.1): requests of a wait-free
// read-only transaction run on the session goroutine, and their responses
// leave when the burst ends. What must survive that: per-transaction
// order across the inline and FIFO paths, every response reaching the
// peer on every way out of a session, and bounded memory against a peer
// that stops reading.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"hdd"
	"hdd/internal/cc"
	"hdd/internal/core"
	"hdd/internal/schema"
	"hdd/internal/server"
	"hdd/internal/wire"
)

// v2conn speaks version 2 directly, so a test controls which frames share
// one write and sees the order responses come back in.
type v2conn struct {
	t   *testing.T
	nc  net.Conn
	br  *bufio.Reader
	ops map[uint64]wire.Op // tag -> opcode of every request sent, to decode its response
}

func v2dial(t *testing.T, addr string) *v2conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &v2conn{t: t, nc: nc, br: bufio.NewReader(nc), ops: make(map[uint64]wire.Op)}
}

// send writes the requests as one burst: a single write(2).
func (c *v2conn) send(reqs ...*wire.Request) {
	c.t.Helper()
	var burst []byte
	for _, r := range reqs {
		c.ops[r.Tag] = r.Op
		p := wire.AppendRequest2(nil, r)
		burst = append(burst, byte(len(p)>>24), byte(len(p)>>16), byte(len(p)>>8), byte(len(p)))
		burst = append(burst, p...)
	}
	if _, err := c.nc.Write(burst); err != nil {
		c.t.Fatalf("sending a burst of %d: %v", len(reqs), err)
	}
}

// recv reads the next response frame, whichever request it answers.
func (c *v2conn) recv() wire.Response {
	c.t.Helper()
	resp, err := c.tryRecv()
	if err != nil {
		c.t.Fatalf("awaiting a response: %v", err)
	}
	return resp
}

func (c *v2conn) tryRecv() (wire.Response, error) {
	c.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	payload, err := wire.ReadFrame(c.br, nil)
	if err != nil {
		return wire.Response{}, err
	}
	tag, err := wire.ResponseTag(payload)
	if err != nil {
		return wire.Response{}, err
	}
	return wire.DecodeResponse2(c.ops[tag], payload)
}

func serverStat(t *testing.T, c *v2conn, name string) int64 {
	t.Helper()
	c.send(&wire.Request{Op: wire.OpStats, Tag: 1 << 40})
	for _, e := range c.recv().Stats {
		if e.Name == name {
			return e.Value
		}
	}
	t.Fatalf("stats carry no %q", name)
	return 0
}

// gateEngine declares wait-free read-only transactions and keeps the
// promise for reads, commits and aborts; a Write on one parks until the
// test opens the gate — the "operation that may block" the server must
// keep off its session goroutine. It logs the order calls reach it.
type gateEngine struct {
	gate chan struct{}

	mu  sync.Mutex
	log []string
}

func (e *gateEngine) note(s string) {
	e.mu.Lock()
	e.log = append(e.log, s)
	e.mu.Unlock()
}

func (e *gateEngine) calls() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]string(nil), e.log...)
}

func (e *gateEngine) Name() string      { return "gate" }
func (e *gateEngine) Stats() cc.Stats   { return cc.Stats{} }
func (e *gateEngine) Close() error      { return nil }
func (e *gateEngine) WaitFreeReadOnly() {}
func (e *gateEngine) Begin(schema.ClassID) (cc.Txn, error) {
	return nil, errors.New("gate: read-only engine")
}
func (e *gateEngine) BeginReadOnly() (cc.Txn, error) { return &gateTxn{e: e}, nil }

type gateTxn struct{ e *gateEngine }

func (t *gateTxn) ID() cc.TxnID          { return 7 }
func (t *gateTxn) Class() schema.ClassID { return schema.NoClass }
func (t *gateTxn) Read(g schema.GranuleID) ([]byte, error) {
	t.e.note(fmt.Sprintf("read %d", g.Key))
	return []byte{byte(g.Key)}, nil
}
func (t *gateTxn) Write(schema.GranuleID, []byte) error {
	t.e.note("write parked")
	<-t.e.gate
	t.e.note("write resumed")
	return errors.New("gate: write in a read-only transaction")
}
func (t *gateTxn) Commit() error { t.e.note("commit"); return nil }
func (t *gateTxn) Abort() error  { t.e.note("abort"); return nil }

// TestInlineKeepsPerTxnOrderBehindFIFO: two reads pipelined on a
// wait-free transaction behind an operation that sits blocked in its FIFO
// must wait for it — they may not overtake it on the inline path — while
// the session goroutine itself stays free to serve others. Once the FIFO
// has drained, the transaction is inline again.
func TestInlineKeepsPerTxnOrderBehindFIFO(t *testing.T) {
	eng := &gateEngine{gate: make(chan struct{})}
	srv := server.New(eng, server.Options{})
	if !srv.Capabilities().Has(cc.CapWaitFreeReadOnly) {
		t.Fatalf("server detected %v on an engine that declares wait-free read-only", srv.Capabilities())
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	defer func() {
		srv.Close()
		<-done
	}()

	c := v2dial(t, l.Addr().String())
	c.send(&wire.Request{Op: wire.OpBeginReadOnly, Tag: 1})
	begun := c.recv()
	if begun.Status != wire.StatusOK {
		t.Fatalf("begin: %+v", begun)
	}
	inlineBefore := serverStat(t, c, "inline_requests")
	if inlineBefore < 1 {
		t.Fatal("the read-only begin did not run inline")
	}

	// One burst: the write (FIFO, parks), two reads of the same
	// transaction, and a Hello that names no transaction.
	c.send(
		&wire.Request{Op: wire.OpWrite, Tag: 2, Txn: begun.Txn, Key: 9, Value: []byte("x")},
		&wire.Request{Op: wire.OpRead, Tag: 3, Txn: begun.Txn, Key: 1},
		&wire.Request{Op: wire.OpRead, Tag: 4, Txn: begun.Txn, Key: 2},
		&wire.Request{Op: wire.OpHello, Tag: 5},
	)
	if hello := c.recv(); hello.Tag != 5 {
		t.Fatalf("first response carries tag %d, want the Hello's 5: a request behind the parked write was answered, or the session goroutine is parked with it", hello.Tag)
	}
	waitFor(t, 5*time.Second, func() bool { return len(eng.calls()) > 0 })
	if got := eng.calls(); len(got) != 1 || got[0] != "write parked" {
		t.Fatalf("engine calls while the write is parked: %v", got)
	}

	close(eng.gate)
	if w := c.recv(); w.Tag != 2 || w.Status == wire.StatusOK {
		t.Fatalf("after the gate opened: %+v, want the write's error under tag 2", w)
	}
	for i, tag := range []uint64{3, 4} {
		r := c.recv()
		if r.Tag != tag || len(r.Value) != 1 || r.Value[0] != byte(i+1) {
			t.Fatalf("read %d answered %+v, want tag %d value %d", i, r, tag, i+1)
		}
	}
	want := []string{"write parked", "write resumed", "read 1", "read 2"}
	if got := eng.calls(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("engine saw %v, want %v", got, want)
	}
	if n := serverStat(t, c, "inline_requests"); n != inlineBefore {
		t.Fatalf("inline_requests went %d -> %d: an operation queued behind the FIFO was counted inline", inlineBefore, n)
	}

	// Once the FIFO's drainer has retired (it does so just after sending
	// the last response, hence the retry) the transaction is inline again.
	tag := uint64(10)
	waitFor(t, 5*time.Second, func() bool {
		tag++
		c.send(&wire.Request{Op: wire.OpRead, Tag: tag, Txn: begun.Txn, Key: 3})
		if r := c.recv(); r.Tag != tag || r.Status != wire.StatusOK {
			t.Fatalf("read after the FIFO drained: %+v", r)
		}
		return serverStat(t, c, "inline_requests") > inlineBefore
	})
	inlineBefore = serverStat(t, c, "inline_requests")
	c.send(&wire.Request{Op: wire.OpCommit, Tag: 7, Txn: begun.Txn})
	if r := c.recv(); r.Tag != 7 || r.Status != wire.StatusOK {
		t.Fatalf("commit: %+v", r)
	}
	if n := serverStat(t, c, "inline_requests"); n != inlineBefore+1 {
		t.Fatalf("inline_requests = %d after an inline commit, want %d", n, inlineBefore+1)
	}
}

// TestShutdownFlushesBufferedInlineResponses: a burst that finishes a
// draining session's last transactions is answered in full before the
// session goes — the responses the session goroutine still buffers when
// it sees "nothing open, nothing in flight" are flushed, not dropped.
func TestShutdownFlushesBufferedInlineResponses(t *testing.T) {
	const txns, rounds = 8, 10
	for round := 0; round < rounds; round++ {
		srv, addr := startServer(t, 2, core.Config{TxnTimeout: 30 * time.Second}, server.Options{})
		c := v2dial(t, addr)

		var begins []*wire.Request
		for i := 0; i < txns; i++ {
			begins = append(begins, &wire.Request{Op: wire.OpBeginReadOnly, Tag: uint64(i + 1)})
		}
		c.send(begins...)
		var burst []*wire.Request
		for i := 0; i < txns; i++ {
			b := c.recv()
			if b.Status != wire.StatusOK {
				t.Fatalf("begin: %+v", b)
			}
			burst = append(burst,
				&wire.Request{Op: wire.OpRead, Tag: 100 + b.Tag, Txn: b.Txn, Key: 1},
				&wire.Request{Op: wire.OpRead, Tag: 200 + b.Tag, Txn: b.Txn, Key: 2},
				&wire.Request{Op: wire.OpCommit, Tag: 300 + b.Tag, Txn: b.Txn})
		}

		// The drain starts with all eight transactions open; the burst that
		// finishes them races it (both orders are legal, neither may lose
		// a response).
		shutdown := make(chan error, 1)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			shutdown <- srv.Shutdown(ctx)
		}()
		if round%2 == 1 {
			time.Sleep(time.Duration(round) * time.Millisecond) // let the drain win this round
		}
		c.send(burst...)

		got := make(map[uint64]bool)
		for range burst {
			r, err := c.tryRecv()
			if err != nil {
				t.Fatalf("round %d: response %d of %d never arrived: %v", round, len(got)+1, len(burst), err)
			}
			if r.Status != wire.StatusOK {
				t.Fatalf("round %d: %+v", round, r)
			}
			got[r.Tag] = true
		}
		if len(got) != len(burst) {
			t.Fatalf("round %d: %d distinct responses for %d requests", round, len(got), len(burst))
		}
		if _, err := c.tryRecv(); !errors.Is(err, io.EOF) {
			t.Fatalf("round %d: after the last response: %v, want the drained session's EOF", round, err)
		}
		if err := <-shutdown; err != nil {
			t.Fatalf("round %d: Shutdown = %v, want a clean drain", round, err)
		}
		if n := srv.OpenTxns(); n != 0 {
			t.Fatalf("round %d: txns_open = %d after the drain", round, n)
		}
		if n := srv.ForcedAborts(); n != 0 {
			t.Fatalf("round %d: drain force-aborted %d transactions that had committed", round, n)
		}
	}
}

// TestStalledReaderIsDropped: a peer that pipelines reads and never reads
// a response costs the server one write buffer, not one buffer per
// request; after WriteTimeout the session is gone and its transaction
// force-aborted.
func TestStalledReaderIsDropped(t *testing.T) {
	const (
		writeTimeout = 500 * time.Millisecond
		valueSize    = 16 << 10
		reads        = 4000 // 64 MiB of responses: far past any socket buffer
	)
	srv, addr := startServer(t, 1, core.Config{WallInterval: 1, TxnTimeout: time.Minute},
		server.Options{WriteTimeout: writeTimeout})

	// Seed one fat value and push the time wall past it.
	seed := dial(t, addr)
	g := hdd.GranuleID{Segment: 0, Key: 1}
	waitFor(t, 10*time.Second, func() bool {
		err := hdd.Run(seed, 0, func(tx hdd.Txn) error { return tx.Write(g, make([]byte, valueSize)) }, hdd.RetryPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		var seen []byte
		err = hdd.Run(seed, hdd.NoClass, func(tx hdd.Txn) (err error) { seen, err = tx.Read(g); return }, hdd.RetryPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		return len(seen) == valueSize
	})
	seed.Close()
	waitFor(t, 5*time.Second, func() bool { return srv.OpenSessions() == 0 })

	c := v2dial(t, addr)
	c.send(&wire.Request{Op: wire.OpBeginReadOnly, Tag: 1})
	begun := c.recv()
	if begun.Status != wire.StatusOK {
		t.Fatalf("begin: %+v", begun)
	}

	runtime.GC()
	var before, during runtime.MemStats
	runtime.ReadMemStats(&before)

	// Pipeline the reads and never look at a response. The write itself
	// may stall once the server stops reading; that is the point.
	go func() {
		var burst []byte
		for i := 0; i < reads; i++ {
			p := wire.AppendRequest2(nil, &wire.Request{Op: wire.OpRead, Tag: uint64(10 + i), Txn: begun.Txn, Key: 1})
			burst = append(burst, 0, 0, 0, byte(len(p)))
			burst = append(burst, p...)
		}
		c.nc.SetWriteDeadline(time.Now().Add(10 * time.Second))
		c.nc.Write(burst)
	}()

	// Mid-stall: the session goroutine is blocked in write. Whatever the
	// heap holds now is what a stalled peer can pin.
	time.Sleep(writeTimeout / 2)
	runtime.ReadMemStats(&during)
	if growth := int64(during.HeapAlloc) - int64(before.HeapAlloc); growth > 8<<20 {
		t.Fatalf("heap grew %d KiB while the peer stalled; responses are being queued per request", growth>>10)
	}
	if n := srv.OpenSessions(); n != 1 {
		t.Fatalf("%d sessions open mid-stall, want the stalled one", n)
	}

	waitFor(t, 20*writeTimeout, func() bool { return srv.OpenSessions() == 0 })
	if n := srv.ForcedAborts(); n != 1 {
		t.Fatalf("force_aborts = %d after the stalled session was dropped, want 1", n)
	}
	if n, a := srv.OpenTxns(), engineActiveTxns(t, srv); n != 0 || a != 0 {
		t.Fatalf("after the drop: %d wire txns, %d engine txns still open", n, a)
	}
}
