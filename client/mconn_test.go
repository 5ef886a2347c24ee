package client

// The multiplexed connection against a real server: the frame writer both
// ends share must never strand a caller, must coalesce when callers share
// a connection, and must cost a lone caller nothing.

import (
	"bufio"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"hdd"
	"hdd/internal/enginereg"
	"hdd/internal/server"
	"hdd/internal/wire"
)

// startHDD serves a fresh HDD engine on addr (a loopback listener) and
// returns the server and the address it bound.
func startHDD(t *testing.T, addr string) (*server.Server, string) {
	t.Helper()
	part, err := enginereg.ChainPartition(2)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := enginereg.Build("HDD", enginereg.Options{Partition: part, TxnTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(eng, server.Options{})
	l, err := net.Listen("tcp", addr)
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

// serveHDD boots an HDD engine behind a loopback server and dials it with
// a single multiplexed connection.
func serveHDD(t *testing.T) *Client {
	t.Helper()
	_, addr := startHDD(t, "127.0.0.1:0")
	c, err := Dial(addr, WithConns(1), WithRequestTimeout(20*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// flushStats returns the server's (response frames, socket flushes).
func flushStats(t *testing.T, c *Client) (frames, flushes int64) {
	t.Helper()
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	return stats["flushed_frames"], stats["writer_flushes"]
}

// runCallers runs callers goroutines, each running txns transactions of
// class that read reads granules of their own (no engine conflicts, only
// wire traffic), and fails the test if any errs or they are not all done
// within limit.
func runCallers(t *testing.T, c *Client, class hdd.ClassID, callers, txns, reads int, limit time.Duration) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < txns; i++ {
				err := hdd.Run(c, class, func(tx hdd.Txn) error {
					for r := 0; r < reads; r++ {
						if _, err := tx.Read(hdd.GranuleID{Segment: 0, Key: uint64(w*reads + r)}); err != nil {
							return err
						}
					}
					return nil
				}, hdd.RetryPolicy{})
				if err != nil {
					errs <- fmt.Errorf("caller %d txn %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(limit):
		t.Fatalf("callers still waiting after %v: a frame was appended and never flushed", limit)
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestFrameWriterLiveness: 16 callers × 30 transactions over one mconn,
// on one P and on four, through the inline path (read-only transactions)
// and the handler path (update transactions). Every call returns — a
// frame whose sender skipped its flush is always carried by someone
// else's — and on one P the yield makes both ends coalesce.
func TestFrameWriterLiveness(t *testing.T) {
	const callers, txns = 16, 30
	for _, procs := range []int{1, 4} {
		for _, path := range []string{"inline", "handlers"} {
			t.Run(fmt.Sprintf("procs=%d/%s", procs, path), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				c := serveHDD(t)
				class := hdd.NoClass
				if path == "handlers" {
					class = 0
				}
				frames0, flushes0 := flushStats(t, c)

				runCallers(t, c, class, callers, txns, 2, 60*time.Second)

				frames1, flushes1 := flushStats(t, c)
				frames, flushes := frames1-frames0, flushes1-flushes0
				if want := int64(callers * txns * 4); frames < want {
					t.Fatalf("server flushed %d response frames for %d round trips", frames, want)
				}
				m := c.slots[0]
				cflushes, cframes := m.fw.Flushes()
				t.Logf("server: %d frames in %d flushes (%.1f per flush); client: %d frames in %d flushes (%.1f per flush), %d yields",
					frames, flushes, float64(frames)/float64(flushes),
					cframes, cflushes, float64(cframes)/float64(cflushes), m.fw.Yields())
				if procs == 1 && frames < 4*flushes {
					t.Fatalf("%d callers on one P: %d response frames took %d socket flushes, want at least 4 per flush", callers, frames, flushes)
				}
				if procs == 1 && cframes < 4*cflushes {
					t.Fatalf("%d callers on one P: %d request frames took %d socket flushes, want at least 4 per flush", callers, cframes, cflushes)
				}
				if m.fw.Yields() == 0 {
					t.Fatal("16 concurrent callers never yielded to each other before flushing")
				}
			})
		}
	}
}

// TestBurstLeavesInOneWrite: 16 callers on one connection and one P. The
// server answers them in bursts, and the callers one burst wakes send
// their next requests in one write: the reader holds the frame writer
// while it delivers and flushes for all of them after the last delivery
// (about 12 frames per write). The bound sits above the 7 a connection
// reaches when the first caller woken flushes alone, 1 + 15 per burst.
func TestBurstLeavesInOneWrite(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	c := serveHDD(t)
	m := c.slots[0]
	flushes0, frames0 := m.fw.Flushes()
	runCallers(t, c, hdd.NoClass, 16, 40, 8, 60*time.Second)
	flushes1, frames1 := m.fw.Flushes()
	flushes, frames := flushes1-flushes0, frames1-frames0
	perWrite := float64(frames) / float64(flushes)
	t.Logf("client: %d request frames in %d writes (%.1f per write); yields: %d", frames, flushes, perWrite, m.fw.Yields())
	if perWrite < 9.5 {
		t.Fatalf("16 callers on one P sent %.1f request frames per write, want at least 9.5", perWrite)
	}
}

// burstServer answers every request on l's first connection with a found
// read. It holds its answers until first requests have arrived and sends
// those in one write; after that it answers whatever its read buffer
// holds, again in one write.
func burstServer(l net.Listener, first int) {
	nc, err := l.Accept()
	if err != nil {
		return
	}
	defer nc.Close()
	br, bw := bufio.NewReader(nc), bufio.NewWriter(nc)
	var buf []byte
	for n := 1; ; n++ {
		p, err := wire.ReadFrame(br, nil)
		if err != nil {
			return
		}
		req, err := wire.DecodeRequestAny(p)
		if err != nil {
			return
		}
		buf = wire.AppendResponse2(buf[:0], req.Op, &wire.Response{Status: wire.StatusOK, Tag: req.Tag, Found: true, Value: []byte("v")})
		if wire.WriteFrame(bw, buf) != nil {
			return
		}
		if n >= first && !wire.FrameBuffered(br) && bw.Flush() != nil {
			return
		}
	}
}

// TestHeldFrameNeverStrands: one burst of 16 responses wakes 16 callers;
// half of them stop sending (they park until the test ends, at most 5 s)
// and the other half go on. The reader's hold covers the frames the
// senders append while it delivers, and its release must not wait for the
// callers that stopped: every call of the senders returns within 1 s.
func TestHeldFrameNeverStrands(t *testing.T) {
	const callers, rounds = 16, 200
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			go burstServer(l, callers)
			nc, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			m := newMconn(nil, nc, 3*time.Second) // a stranded call fails after 3-3.75 s
			go m.readLoop()
			go m.sweep()
			defer m.fail(errClientClosed)

			park := make(chan struct{})
			unpark := time.AfterFunc(5*time.Second, func() { close(park) })
			var sending, parked sync.WaitGroup
			errs := make(chan error, callers)
			for w := 0; w < callers; w++ {
				wg := &sending
				if w%2 == 1 {
					wg = &parked
				}
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < rounds; i++ {
						if w%2 == 1 && i == 1 {
							<-park // woken by the first burst, sends nothing more
							return
						}
						start := time.Now()
						if _, err := m.roundTrip(&wire.Request{Op: wire.OpRead, Txn: 1, Key: uint64(w)}); err != nil {
							errs <- fmt.Errorf("caller %d call %d: %w", w, i, err)
							return
						}
						if d := time.Since(start); d > time.Second && i > 0 {
							errs <- fmt.Errorf("caller %d call %d took %v while half the callers parked", w, i, d)
							return
						}
					}
				}(w)
			}
			sending.Wait()
			if unpark.Stop() {
				close(park)
			}
			parked.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

// TestLoneCallerFlushesEveryFrameAtOnce: at depth 1 there is nobody to
// wait for — one socket flush per frame on both ends, and no yield.
func TestLoneCallerFlushesEveryFrameAtOnce(t *testing.T) {
	c := serveHDD(t)
	frames0, flushes0 := flushStats(t, c)
	const txns = 50
	for i := 0; i < txns; i++ {
		class := hdd.ClassID(i % 2) // alternate the handler path and...
		if i%4 >= 2 {
			class = hdd.NoClass // ...the inline path
		}
		err := hdd.Run(c, class, func(tx hdd.Txn) error {
			_, err := tx.Read(hdd.GranuleID{Segment: 0, Key: 1})
			return err
		}, hdd.RetryPolicy{})
		if err != nil {
			t.Fatal(err)
		}
	}
	frames1, flushes1 := flushStats(t, c)
	if frames, flushes := frames1-frames0, flushes1-flushes0; frames != flushes || frames < 3*txns {
		t.Fatalf("a lone caller's %d transactions: server sent %d frames in %d flushes, want one flush per frame", txns, frames, flushes)
	}
	if y := c.slots[0].fw.Yields(); y != 0 {
		t.Fatalf("a lone caller yielded %d times before flushing", y)
	}
}

// TestClientSurvivesServerRestart: the server goes away and comes back on
// the same address. The transaction that was open is lost with its
// session; at most the first call afterwards fails (it can reach the dead
// connection before its reader has seen the close), and every later call
// is served over a redialed connection.
func TestClientSurvivesServerRestart(t *testing.T) {
	srv, addr := startHDD(t, "127.0.0.1:0")
	c, err := Dial(addr, WithConns(1), WithRequestTimeout(20*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	orphan, err := c.Begin(0)
	if err != nil {
		t.Fatal(err)
	}

	srv.Close()
	startHDD(t, addr)

	if _, err := orphan.Read(hdd.GranuleID{Segment: 0, Key: 1}); err == nil {
		t.Fatal("a transaction of the closed server still answers")
	}
	c.Stats() // the one call that may still fail
	tx, err := c.Begin(0)
	if err != nil {
		t.Fatalf("Begin after the restart: %v", err)
	}
	if tx.(*Txn).mc == orphan.(*Txn).mc {
		t.Fatal("Begin after the restart was served by the old connection")
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit after the restart: %v", err)
	}
	if _, err := c.Stats(); err != nil {
		t.Fatalf("Stats after the restart: %v", err)
	}
}

// TestZeroRequestTimeoutMeansDefault: WithRequestTimeout(0) takes the
// default, as an unset timeout does, instead of failing every round trip.
func TestZeroRequestTimeoutMeansDefault(t *testing.T) {
	_, addr := startHDD(t, "127.0.0.1:0")
	c, err := Dial(addr, WithConns(1), WithRequestTimeout(0))
	if err != nil {
		t.Fatalf("Dial with a zero request timeout: %v", err)
	}
	defer c.Close()
	err = hdd.Run(c, 0, func(tx hdd.Txn) error {
		return tx.Write(hdd.GranuleID{Segment: 0, Key: 1}, []byte("v"))
	}, hdd.RetryPolicy{})
	if err != nil {
		t.Fatalf("transaction with a zero request timeout: %v", err)
	}
}

// TestDialRejectsOtherWireVersion: a peer that answers Hello with a frame
// of another protocol version (here what a version-1 server sent for a
// frame it could not decode) fails Dial with an error that says so.
func TestDialRejectsOtherWireVersion(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		nc, err := l.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		if _, err := wire.ReadFrame(bufio.NewReader(nc), nil); err != nil {
			return
		}
		msg := "wire: protocol version 2, want 1"
		v1 := append([]byte{1, byte(wire.StatusError), 0, 0, 0, byte(len(msg))}, msg...)
		bw := bufio.NewWriter(nc)
		wire.WriteFrame(bw, v1)
		bw.Flush()
	}()
	_, err = Dial(l.Addr().String(), WithRequestTimeout(10*time.Second))
	if err == nil || !strings.Contains(err.Error(), "server speaks wire version 1, this client requires 2") {
		t.Fatalf("Dial against a version-1 peer: %v", err)
	}
}
