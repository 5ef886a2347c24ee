package client

// What a round trip costs and what it hands back: the request timeout
// fails a silent connection, a read allocates only its value, and that
// value belongs to the caller.

import (
	"bufio"
	"bytes"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"hdd"
	"hdd/internal/wire"
)

// silentPeer answers Hello and nothing else: every other request frame is
// read and left unanswered. It reports each frame it swallows on got and
// counts the connections it accepts.
func silentPeer(t *testing.T) (addr string, got <-chan wire.Op, accepted func() int) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	ops := make(chan wire.Op, 64)
	var mu sync.Mutex
	conns := 0
	go func() {
		for {
			nc, err := l.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns++
			mu.Unlock()
			go func() {
				defer nc.Close()
				br, bw := bufio.NewReader(nc), bufio.NewWriter(nc)
				for {
					p, err := wire.ReadFrame(br, nil)
					if err != nil {
						return
					}
					req, err := wire.DecodeRequestAny(p)
					if err != nil {
						return
					}
					if req.Op != wire.OpHello {
						ops <- req.Op
						continue
					}
					resp := wire.Response{Status: wire.StatusOK, Tag: req.Tag, EngineName: "silent"}
					wire.WriteFrame(bw, wire.AppendResponse2(nil, wire.OpHello, &resp))
					bw.Flush()
				}
			}()
		}
	}()
	return l.Addr().String(), ops, func() int {
		mu.Lock()
		defer mu.Unlock()
		return conns
	}
}

// TestRequestTimeoutFailsConn: an unanswered request fails with "not
// received within" no sooner than the timeout and not much later, every
// other call waiting on the connection fails with it, the next call
// redials, and Close leaves no goroutine behind.
func TestRequestTimeoutFailsConn(t *testing.T) {
	const timeout = 50 * time.Millisecond
	const others = 4
	addr, got, accepted := silentPeer(t)
	base := runtime.NumGoroutine()
	c, err := Dial(addr, WithConns(1), WithRequestTimeout(timeout))
	if err != nil {
		t.Fatal(err)
	}

	errs := make(chan error, others)
	for i := 0; i < others; i++ {
		go func() {
			_, err := c.Begin(0)
			errs <- err
		}()
	}
	for i := 0; i < others; i++ {
		<-got // the others are pending on the connection
	}
	start := time.Now()
	_, err = c.BeginReadOnly()
	elapsed := time.Since(start)
	if err == nil || !strings.Contains(err.Error(), "not received within") {
		t.Fatalf("unanswered request: %v, want a request timeout", err)
	}
	// The sweep fails a call between one and 1.25 timeouts after it was
	// sent; the slack absorbs scheduling on a loaded machine.
	if limit := timeout*5/4 + 100*time.Millisecond; elapsed < timeout || elapsed > limit {
		t.Fatalf("request failed after %v, want within [%v, %v]", elapsed, timeout, limit)
	}
	for i := 0; i < others; i++ {
		if other := <-errs; other == nil || other.Error() != err.Error() {
			t.Fatalf("pending call %d failed with %v, want the connection's %v", i, other, err)
		}
	}

	if _, err := c.Begin(0); err == nil || !strings.Contains(err.Error(), "not received within") {
		t.Fatalf("call after the failure: %v, want a request timeout on a fresh connection", err)
	}
	if n := accepted(); n != 2 {
		t.Fatalf("peer accepted %d connections, want 2: the call after the failure redials", n)
	}

	c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before Dial: a reader or sweep outlived its connection", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// seed commits one value per key through a class-0 transaction.
func seed(t *testing.T, c *Client, values map[uint64][]byte) {
	t.Helper()
	err := hdd.Run(c, 0, func(tx hdd.Txn) error {
		for k, v := range values {
			if err := tx.Write(hdd.GranuleID{Key: k}, v); err != nil {
				return err
			}
		}
		return nil
	}, hdd.RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReadRoundTripAllocs: a Protocol C read over a loopback connection —
// client, server and engine in this process — allocates only its value,
// which comes from the connection's chunk, so well under one object per
// read.
func TestReadRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed under -race")
	}
	c := serveHDD(t)
	seed(t, c, map[uint64][]byte{1: bytes.Repeat([]byte{'v'}, 64)})
	tx, err := c.BeginReadOnly()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	g := hdd.GranuleID{Key: 1}
	allocs := testing.AllocsPerRun(2000, func() {
		if _, err := tx.Read(g); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 1 {
		t.Fatalf("a Protocol C read round trip allocates %.0f objects, want < 1", allocs)
	}
}

// addr is the address of a value's first byte.
func addr(v []byte) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(v))) }

// TestReadValueOwnership: values carved from the connection's chunk stay
// the caller's. Appending to one cannot reach the value after it, a value
// survives any number of later reads, and a value over the carving cutoff
// gets its own allocation.
func TestReadValueOwnership(t *testing.T) {
	c := serveHDD(t)
	a, b := bytes.Repeat([]byte{'a'}, 64), bytes.Repeat([]byte{'b'}, 64)
	big := bytes.Repeat([]byte{'z'}, maxCarved+1)
	seed(t, c, map[uint64][]byte{1: a, 2: b, 3: big})
	// A class-0 transaction reads its own write segment current.
	tx, err := c.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	read := func(k uint64) []byte {
		t.Helper()
		v, err := tx.Read(hdd.GranuleID{Key: k})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	t.Run("large", func(t *testing.T) {
		before := read(1)
		vbig := read(3)
		after := read(1)
		if !bytes.Equal(vbig, big) {
			t.Fatal("large value corrupted")
		}
		if addr(after) != addr(before)+uintptr(len(before)) {
			t.Fatal("the values read before and after the large one are not adjacent in one chunk")
		}
		if lo := addr(before); addr(vbig) >= lo && addr(vbig) < lo+chunkSize {
			t.Fatalf("a %d-byte value was carved from the chunk", len(vbig))
		}
	})
	t.Run("append", func(t *testing.T) {
		va, vb := read(1), read(2)
		_ = append(va, "overwrite"...)
		if !bytes.Equal(vb, b) {
			t.Fatalf("appending to one value changed the next: %q", vb)
		}
	})

	t.Run("retained", func(t *testing.T) {
		va := read(1)
		var batch Batch
		for i := 0; i < 100; i++ {
			batch.Read(hdd.GranuleID{Key: 2})
		}
		for i := 0; i < 100; i++ { // 10 000 further reads on the connection
			res, err := tx.(*Txn).Do(&batch)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(res[len(res)-1].Value, b) {
				t.Fatalf("batch read %q", res[len(res)-1].Value)
			}
		}
		if !bytes.Equal(va, a) {
			t.Fatalf("a retained value changed under later reads: %q", va)
		}
	})

}
