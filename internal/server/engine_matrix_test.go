package server_test

// The engine matrix: the same service stack — TCP loopback, wire protocol,
// public client, hdd.RunCtx retry loops — serving different backends
// through the cc.Engine capability contract. Every registered engine, plus
// HDD over a WAL, is served. Client-visible semantics must be identical
// wherever the engines overlap (mixed workloads commit, aborts round-trip
// as hdd.IsAbort, the stats opcode answers, the server drains once clients
// close, graceful shutdown completes), and capability-gated opcodes must
// fail typed — never crash — where a backend lacks the capability.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"hdd"
	"hdd/client"
	"hdd/internal/cc"
	"hdd/internal/enginereg"
	"hdd/internal/fault"
	"hdd/internal/server"
)

// startEngineServer boots the named registry engine behind a loopback
// server, durable when dataDir is set. Shutdown/cleanup mirrors startServer.
func startEngineServer(t *testing.T, name string, classes int, dataDir string, wrapped bool) (*server.Server, string) {
	t.Helper()
	part, err := enginereg.ChainPartition(classes)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := enginereg.Build(name, enginereg.Options{Partition: part, TxnTimeout: 10 * time.Second, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	if wrapped {
		eng = fault.Wrap(eng, fault.Config{Seed: 1})
	}
	srv := server.New(eng, server.Options{})
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

func TestEngineMatrix(t *testing.T) {
	for _, leg := range append(enginereg.Names(), "HDD+WAL", "HDD+fault") {
		t.Run(leg, func(t *testing.T) {
			name, variant, _ := strings.Cut(leg, "+")
			durable := variant == "WAL"
			dataDir := ""
			if durable {
				dataDir = t.TempDir()
			}
			// The fault-wrapped engine injects nothing; its transactions
			// offer none of the entry points that never wait, so nothing
			// runs inline (checkStats).
			srv, addr := startEngineServer(t, name, 3, dataDir, variant == "fault")
			c := dial(t, addr)

			// Hello: the wire reports who we are talking to, and the
			// capability bits match what the server detected.
			info, err := c.ServerInfo()
			if err != nil {
				t.Fatal(err)
			}
			if info.Engine != name {
				t.Fatalf("ServerInfo.Engine = %q, want %q", info.Engine, name)
			}
			if info.Caps != srv.Capabilities() {
				t.Fatalf("ServerInfo.Caps = %v, server detected %v", info.Caps, srv.Capabilities())
			}
			if name == "HDD" && !info.Caps.Has(hdd.CapScopedReadOnly|hdd.CapForceAbort) {
				t.Fatalf("HDD capabilities = %v, missing expected bits", info.Caps)
			}

			runMixedWorkload(t, addr)
			provokeAbort(t, c, name)
			checkCapabilityGating(t, c, info.Caps)
			checkStats(t, c, info)
			c.Close()
			checkDrained(t, addr, durable)

			// Graceful shutdown drains: nothing is open, so Shutdown must
			// complete well inside the deadline with no error.
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				t.Fatalf("Shutdown = %v, want clean drain", err)
			}
			if n := srv.OpenSessions(); n != 0 {
				t.Fatalf("OpenSessions = %d after shutdown", n)
			}
		})
	}
}

// runMixedWorkload is the PR 3 end-to-end mix, engine-agnostic: concurrent
// workers running updates across the chain's classes plus wall-bounded
// read-only transactions, all through hdd.RunCtx so engine aborts
// (rejections or deadlocks alike) are retried, and every transaction must
// eventually commit.
func runMixedWorkload(t *testing.T, addr string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const workers, txnsPer = 4, 25
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(worker) + 1))
			for i := 0; i < txnsPer; i++ {
				key := rng.Uint64() % 16
				if rng.Intn(4) == 0 {
					err = hdd.RunCtx(ctx, c, hdd.NoClass, func(tx hdd.Txn) error {
						_, err := tx.Read(hdd.GranuleID{Segment: 0, Key: key})
						return err
					}, hdd.RetryPolicy{})
				} else {
					cls := hdd.ClassID(rng.Intn(3))
					val := []byte(fmt.Sprintf("w%d-%d", worker, i))
					err = hdd.RunCtx(ctx, c, cls, func(tx hdd.Txn) error {
						if cls > 0 {
							if _, err := tx.Read(hdd.GranuleID{Segment: hdd.SegmentID(cls - 1), Key: key}); err != nil {
								return err
							}
						}
						return tx.Write(hdd.GranuleID{Segment: hdd.SegmentID(cls), Key: key}, val)
					}, hdd.RetryPolicy{MaxAttempts: -1})
				}
				if err != nil {
					errCh <- fmt.Errorf("worker %d txn %d: %w", worker, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// checkDrained asserts the server leaked nothing once every client closed:
// no transaction open server-side, none in flight in the engine (where it
// counts them), and no session but the checker's own. A durable engine must
// also have logged the load and must not be degraded.
func checkDrained(t *testing.T, addr string, durable bool) {
	t.Helper()
	// One connection, so "drained" is sessions_open <= 1 however the client
	// would otherwise spread Stats polls over its slots.
	c := dial(t, addr, client.WithConns(1))
	defer c.Close()
	// Closed clients' sessions unwind asynchronously.
	deadline := time.Now().Add(5 * time.Second)
	for {
		stats, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if stats["txns_open"] == 0 && stats["active_txns"] == 0 && stats["sessions_open"] <= 1 {
			if durable && (stats["wal_records"] == 0 || stats["durability_degraded"] != 0) {
				t.Fatalf("durable engine after the load: wal_records=%d durability_degraded=%d",
					stats["wal_records"], stats["durability_degraded"])
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("not drained: txns_open=%d active_txns=%d sessions_open=%d (want 0/0/<=1)",
				stats["txns_open"], stats["active_txns"], stats["sessions_open"])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// provokeAbort forces the native abort of the four engines it knows through
// the wire and checks it arrives as a genuine hdd.IsAbort error with the
// engine's reason intact: MV2PL and 2PL via deadlock, HDD and MVTO via
// timestamp-ordering write rejection — both abort styles the wire carries.
// The other engines' aborts take the same path and are retried by the
// mixed workload.
func provokeAbort(t *testing.T, c *client.Client, engine string) {
	t.Helper()
	switch engine {
	case "HDD", "MVTO":
		// Timestamp ordering: a younger transaction registers a read and
		// commits; the older transaction's write to the same granule then
		// arrives too late and is rejected.
		g := hdd.GranuleID{Segment: 0, Key: 9001}
		older, err := c.Begin(0)
		if err != nil {
			t.Fatal(err)
		}
		younger, err := c.Begin(0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := younger.Read(g); err != nil {
			t.Fatal(err)
		}
		if err := younger.Commit(); err != nil {
			t.Fatal(err)
		}
		err = older.Write(g, []byte("late"))
		if err == nil {
			err = older.Commit()
		} else {
			defer older.Abort()
		}
		if !hdd.IsAbort(err) {
			t.Fatalf("older write after younger read = %v, want abort", err)
		}
		if reason := cc.AbortReason(err); reason != cc.ReasonWriteRejected {
			t.Fatalf("abort reason %q did not round-trip, want %q", reason, cc.ReasonWriteRejected)
		}

	case "2PL", "MV2PL":
		// Deadlock: crossed S->X upgrades. One of the two transactions is
		// chosen victim (whichever request closes the waits-for cycle), and
		// its abort must cross the wire typed.
		g1 := hdd.GranuleID{Segment: 0, Key: 9001}
		g2 := hdd.GranuleID{Segment: 0, Key: 9002}
		t1, err := c.Begin(0)
		if err != nil {
			t.Fatal(err)
		}
		t2, err := c.Begin(0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := t1.Read(g1); err != nil {
			t.Fatal(err)
		}
		if _, err := t2.Read(g2); err != nil {
			t.Fatal(err)
		}
		errs := make(chan error, 2)
		go func() { errs <- t1.Write(g2, []byte("a")) }()
		go func() { errs <- t2.Write(g1, []byte("b")) }()
		e1, e2 := <-errs, <-errs
		aborted := 0
		for _, err := range []error{e1, e2} {
			if err == nil {
				continue
			}
			if !hdd.IsAbort(err) {
				t.Fatalf("deadlock produced non-abort error: %v", err)
			}
			if reason := cc.AbortReason(err); reason != cc.ReasonDeadlock {
				t.Fatalf("abort reason %q did not round-trip, want %q", reason, cc.ReasonDeadlock)
			}
			aborted++
		}
		if aborted != 1 {
			t.Fatalf("deadlock aborted %d of 2 transactions, want exactly 1 victim", aborted)
		}
		t1.Abort()
		t2.Abort()
	}
}

// checkCapabilityGating probes the capability-gated opcodes: where the
// engine backs them they work; where it does not, the wire answers the
// typed unsupported status — errors.Is(err, hdd.ErrNotSupported) — and the
// session keeps serving afterwards.
func checkCapabilityGating(t *testing.T, c *client.Client, caps hdd.Capability) {
	t.Helper()
	if caps.Has(hdd.CapScopedReadOnly) {
		tx, err := c.BeginReadOnlyFor(0, 1)
		if err != nil {
			t.Fatalf("BeginReadOnlyFor with capability: %v", err)
		}
		if _, err := tx.Read(hdd.GranuleID{Segment: 0, Key: 1}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	} else {
		_, err := c.BeginReadOnlyFor(0)
		if !errors.Is(err, hdd.ErrNotSupported) {
			t.Fatalf("BeginReadOnlyFor without capability = %v, want ErrNotSupported", err)
		}
		if hdd.IsAbort(err) {
			t.Fatal("ErrNotSupported classified as abort; retry loops would spin")
		}
	}
	// The connection survives unsupported answers: a plain transaction
	// still works on this client.
	tx, err := c.Begin(0)
	if err != nil {
		t.Fatalf("Begin after capability probes: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// checkStats exercises the stats opcode against every backend: the shared
// counters answer for all engines, engine_caps echoes the hello bits, and
// capability-scoped entries appear exactly when the capability does.
func checkStats(t *testing.T, c *client.Client, info client.ServerInfo) {
	t.Helper()
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats["commits"] < 1 {
		t.Fatalf("stats commits = %d after the mixed workload", stats["commits"])
	}
	if hdd.Capability(stats["engine_caps"]) != info.Caps {
		t.Fatalf("engine_caps stat = %v, hello said %v", hdd.Capability(stats["engine_caps"]), info.Caps)
	}
	_, hasActive := stats["active_txns"]
	if hasActive != info.Caps.Has(hdd.CapActiveTxns) {
		t.Fatalf("active_txns stat present=%v, capability=%v", hasActive, info.Caps.Has(hdd.CapActiveTxns))
	}
	_, hasWAL := stats["wal_records"]
	if hasWAL != info.Caps.Has(hdd.CapDurability) {
		t.Fatalf("wal_records stat present=%v, durability capability=%v", hasWAL, info.Caps.Has(hdd.CapDurability))
	}
	// The mixed workload ran read-only transactions: the session goroutine
	// executed them exactly where the engine declared they cannot block.
	if inline := stats["inline_requests"] > 0; inline != info.Caps.Has(hdd.CapWaitFreeReadOnly) {
		t.Fatalf("inline_requests = %d with capabilities %v", stats["inline_requests"], info.Caps)
	}
}

// TestUnknownSegmentReadKeepsServing: a read-only transaction that names a
// segment the partition does not have gets an error back over the wire,
// and the server keeps serving — the transaction commits, and so does a
// fresh update transaction. Run against the engines that know the
// partition; the others read any segment.
func TestUnknownSegmentReadKeepsServing(t *testing.T) {
	for _, name := range []string{"HDD", "HDD-msg", "SDD-1"} {
		t.Run(name, func(t *testing.T) {
			_, addr := startEngineServer(t, name, 3, "", false)
			c := dial(t, addr)
			ro, err := c.BeginReadOnly()
			if err != nil {
				t.Fatal(err)
			}
			for _, seg := range []hdd.SegmentID{99, -1} {
				if _, err := ro.Read(hdd.GranuleID{Segment: seg, Key: 1}); err == nil || hdd.IsAbort(err) {
					t.Fatalf("read of segment %d = %v, want a non-abort error", seg, err)
				}
			}
			if err := ro.Commit(); err != nil {
				t.Fatal(err)
			}
			tx, err := c.Begin(0)
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.Write(hdd.GranuleID{Segment: 0, Key: 1}, []byte("v")); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWaitFreeReadOnlyByEngine: only the HDD engine declares that its
// read-only transactions cannot block, and the wire reports it by name.
func TestWaitFreeReadOnlyByEngine(t *testing.T) {
	for _, name := range enginereg.Names() {
		part, err := enginereg.ChainPartition(2)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := enginereg.Build(name, enginereg.Options{Partition: part})
		if err != nil {
			t.Fatal(err)
		}
		caps := server.New(eng, server.Options{}).Capabilities()
		eng.Close()
		if got, want := caps.Has(cc.CapWaitFreeReadOnly), name == "HDD"; got != want {
			t.Errorf("%s: wait-free read-only = %v (capabilities %v), want %v", name, got, caps, want)
		}
		if got, want := strings.Contains(caps.String(), "waitfree-readonly"), name == "HDD"; got != want {
			t.Errorf("%s: capabilities print as %q", name, caps)
		}
	}
}

// TestBlockedReadOnlyDoesNotStallSession: a strict-2PL read-only
// transaction locks like any other, so its read can park behind a writer.
// The engine does not declare wait-free read-only transactions, the read
// therefore leaves the session goroutine, and sibling transactions on the
// same connection keep being served while it waits.
func TestBlockedReadOnlyDoesNotStallSession(t *testing.T) {
	_, addr := startEngineServer(t, "2PL", 2, "", false)
	c := dial(t, addr, client.WithConns(1))
	hot := hdd.GranuleID{Segment: 0, Key: 1}

	writer, err := c.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := writer.Write(hot, []byte("held")); err != nil {
		t.Fatal(err)
	}
	reader, err := c.BeginReadOnly()
	if err != nil {
		t.Fatal(err)
	}
	type readResult struct {
		val []byte
		err error
	}
	parked := make(chan readResult, 1)
	go func() {
		v, err := reader.Read(hot)
		parked <- readResult{v, err}
	}()
	// The engine counts a read on entry and a blocked read once its wait
	// is over: reads=1 means the read is inside the engine, at the lock.
	waitFor(t, 5*time.Second, func() bool {
		stats, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		return stats["reads"] >= 1
	})

	// Same connection, same session: a sibling read-only transaction runs
	// start to finish while the first is parked on the lock.
	sibling, err := c.BeginReadOnly()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sibling.Read(hdd.GranuleID{Segment: 0, Key: 2}); err != nil {
		t.Fatal(err)
	}
	if err := sibling.Commit(); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-parked:
		t.Fatalf("the parked read returned (%q, %v) before the writer released its lock", r.val, r.err)
	default:
	}

	if err := writer.Commit(); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-parked:
		if r.err != nil || string(r.val) != "held" {
			t.Fatalf("parked read after the writer committed: (%q, %v)", r.val, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the parked read never resumed")
	}
	if err := reader.Commit(); err != nil {
		t.Fatal(err)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats["blocked_reads"] != 1 {
		t.Fatalf("blocked_reads = %d: the read never waited on the writer's lock", stats["blocked_reads"])
	}
	if stats["inline_requests"] != 0 {
		t.Fatalf("inline_requests = %d against an engine that may block", stats["inline_requests"])
	}
}
