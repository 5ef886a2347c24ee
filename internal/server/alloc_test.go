package server_test

import (
	"bytes"
	"testing"

	"hdd/internal/core"
	"hdd/internal/schema"
	"hdd/internal/server"
	"hdd/internal/wire"
)

// TestInlineReadAllocs pins the server's inline path at zero allocations
// per request: a burst of Protocol C reads of 64-byte values is read,
// decoded, executed on the session goroutine, encoded and flushed without
// touching the heap. The whole process is counted, so the test's own end
// reads the responses through one reused buffer.
func TestInlineReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed under -race")
	}
	const burst = 64
	srv, addr := startServer(t, 1, core.Config{WallInterval: 1}, server.Options{})
	eng := srv.Engine()
	for i := 0; i < 4; i++ { // commits past the seed release a wall over it
		tx, err := eng.Begin(0)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < burst; k++ {
			if err := tx.Write(schema.GranuleID{Key: uint64(k)}, bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	c := v2dial(t, addr)
	c.send(&wire.Request{Op: wire.OpBeginReadOnly, Tag: 1})
	begun := c.recv()
	if begun.Status != wire.StatusOK {
		t.Fatalf("begin: %+v", begun)
	}
	var frames []byte
	for k := 0; k < burst; k++ {
		p := wire.AppendRequest2(nil, &wire.Request{Op: wire.OpRead, Tag: uint64(k + 2), Txn: begun.Txn, Key: uint64(k)})
		frames = append(frames, byte(len(p)>>24), byte(len(p)>>16), byte(len(p)>>8), byte(len(p)))
		frames = append(frames, p...)
	}
	buf := make([]byte, 0, 256)
	found := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := c.nc.Write(frames); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < burst; k++ {
			payload, err := wire.ReadFrame(c.br, buf)
			if err != nil {
				t.Fatal(err)
			}
			if len(payload) > 10 && payload[10] == 1 { // status OK, found
				found++
			}
			buf = payload[:cap(payload)]
		}
	})
	if found == 0 {
		t.Fatal("no read found its value: the burst measured only misses")
	}
	if allocs != 0 {
		t.Fatalf("a burst of %d inline reads allocates %.0f objects, want 0", burst, allocs)
	}
}

// updateTxnAllocs is TestUpdateAllocs' budget, in objects per update
// transaction for the whole process, server and test client together.
// The engine's share is the transaction and the written value's copy:
// ReadShared makes no read chunk, and neither a write-set map nor a
// cancel channel is made up front.
const updateTxnAllocs = 5

// TestUpdateAllocs pins the allocations of one update transaction served
// inline: a begin, a Protocol A read, a Protocol B read, a 64-byte write
// and a memory-only commit, each read, decoded, executed on the session
// goroutine and answered without a handler goroutine. The written value
// is copied once, by the engine's Write: the decoder aliases it in the
// read buffer.
func TestUpdateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed under -race")
	}
	_, addr := startServer(t, 2, core.Config{WallInterval: 64, GCEveryCommits: 64}, server.Options{})
	c := v2dial(t, addr)
	frame := func(buf []byte, req *wire.Request) []byte {
		n := len(buf)
		buf = wire.AppendRequest2(append(buf, 0, 0, 0, 0), req)
		p := len(buf) - n - 4
		buf[n], buf[n+1], buf[n+2], buf[n+3] = byte(p>>24), byte(p>>16), byte(p>>8), byte(p)
		return buf
	}
	begin := frame(nil, &wire.Request{Op: wire.OpBegin, Tag: 1, Class: 1})
	value := bytes.Repeat([]byte{7}, 64)
	out, in := make([]byte, 0, 512), make([]byte, 0, 256)
	recv := func(op wire.Op) wire.Response {
		payload, err := wire.ReadFrame(c.br, in)
		if err != nil {
			t.Fatal(err)
		}
		in = payload[:cap(payload)]
		resp, err := wire.DecodeResponse2(op, payload)
		if err != nil || resp.Status != wire.StatusOK {
			t.Fatalf("%v: %+v, %v", op, resp, err)
		}
		return resp
	}
	key := uint64(0)
	txn := func() {
		key = (key + 1) % 64
		if _, err := c.nc.Write(begin); err != nil {
			t.Fatal(err)
		}
		id := recv(wire.OpBegin).Txn
		out = frame(out[:0], &wire.Request{Op: wire.OpRead, Tag: 2, Txn: id, Seg: 0, Key: key})
		out = frame(out, &wire.Request{Op: wire.OpRead, Tag: 3, Txn: id, Seg: 1, Key: key})
		out = frame(out, &wire.Request{Op: wire.OpWrite, Tag: 4, Txn: id, Seg: 1, Key: key, Value: value})
		out = frame(out, &wire.Request{Op: wire.OpCommit, Tag: 5, Txn: id})
		if _, err := c.nc.Write(out); err != nil {
			t.Fatal(err)
		}
		for _, op := range []wire.Op{wire.OpRead, wire.OpRead, wire.OpWrite, wire.OpCommit} {
			recv(op)
		}
	}
	for i := 0; i < 256; i++ { // every key written, chains and the session warm
		txn()
	}
	inline := serverStat(t, c, "inline_requests")
	allocs := testing.AllocsPerRun(500, txn)
	if n := serverStat(t, c, "inline_requests") - inline; n != 501*5 {
		t.Fatalf("%d of %d requests ran inline", n, 501*5)
	}
	if allocs > updateTxnAllocs {
		t.Fatalf("an update transaction served inline allocates %.0f objects, budget %d", allocs, updateTxnAllocs)
	}
}
