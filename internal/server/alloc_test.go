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
