package core

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"testing"

	"hdd/internal/wal"
)

func TestEngineCheckpointRecover(t *testing.T) {
	part := twoLevel(t)
	e1 := newEngine(t, part, nil)
	for i := 0; i < 20; i++ {
		tx, _ := e1.Begin(0)
		write(t, tx, gr(0, i%5), fmt.Sprintf("v%d", i))
		mustCommit(t, tx)
	}
	d, _ := e1.Begin(1)
	if got := read(t, d, gr(0, 0)); got == "" {
		t.Fatal("setup failed")
	}
	write(t, d, gr(1, 1), "derived")
	mustCommit(t, d)

	var buf bytes.Buffer
	if err := e1.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}

	e2, err := NewEngineFromCheckpoint(Config{Partition: part, WallInterval: 8}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	// Recovered values visible to update transactions…
	tx, _ := e2.Begin(1)
	if got := read(t, tx, gr(0, 0)); got != "v15" {
		t.Fatalf("recovered read = %q, want v15", got)
	}
	if got := read(t, tx, gr(1, 1)); got != "derived" {
		t.Fatalf("recovered root read = %q", got)
	}
	// …and writable on top.
	write(t, tx, gr(1, 1), "derived-2")
	mustCommit(t, tx)

	// And to Protocol C readers.
	ro, _ := e2.BeginReadOnly()
	if got := read(t, ro, gr(0, 0)); got != "v15" {
		t.Fatalf("recovered wall read = %q", got)
	}
	mustCommit(t, ro)
}

// A memory-only engine takes values of any size, but a checkpoint frame
// does not: checkpointing one is an error, and the engine keeps serving.
func TestCheckpointOversizedValueIsAnError(t *testing.T) {
	e := newEngine(t, twoLevel(t), nil)
	tx, _ := e.Begin(0)
	write(t, tx, gr(0, 1), string(make([]byte, wal.MaxRecord)))
	mustCommit(t, tx)
	if err := e.WriteCheckpoint(io.Discard); err == nil || !strings.Contains(err.Error(), strconv.Itoa(wal.MaxRecord)) {
		t.Fatalf("checkpoint of a %d-byte value: err = %v, want an error naming its size", wal.MaxRecord, err)
	}
	tx, _ = e.Begin(0)
	write(t, tx, gr(0, 1), "small")
	mustCommit(t, tx)
}

// TestCheckpointDuringLoad: checkpoints taken while updates churn are
// consistent (the gate drains in-flight transactions first) and recover
// cleanly.
func TestCheckpointDuringLoad(t *testing.T) {
	part := twoLevel(t)
	e := newEngine(t, part, nil)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				i++
				tx, _ := e.Begin(0)
				if err := tx.Write(gr(0, (c*31+i)%16), []byte{byte(i)}); err != nil {
					_ = tx.Abort()
					continue
				}
				_ = tx.Commit()
			}
		}(c)
	}
	for k := 0; k < 5; k++ {
		var buf bytes.Buffer
		if err := e.WriteCheckpoint(&buf); err != nil {
			t.Fatal(err)
		}
		e2, err := NewEngineFromCheckpoint(Config{Partition: part}, &buf)
		if err != nil {
			t.Fatalf("checkpoint %d failed recovery: %v", k, err)
		}
		// Every recovered chain contains only committed versions.
		for key := 0; key < 16; key++ {
			for _, v := range e2.Store().Versions(gr(0, key)) {
				if v.State != 1 { // mvstore.Committed
					t.Fatalf("pending version in checkpoint %d", k)
				}
			}
		}
	}
	close(stop)
	wg.Wait()
}
