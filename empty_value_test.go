package hdd_test

// An empty value is a value: every engine's read paths, embedded and over
// the wire, answer it with a non-nil empty slice, and keep nil for a
// granule that was never written.

import (
	"errors"
	"fmt"
	"net"
	"testing"

	"hdd"
	"hdd/client"
	"hdd/internal/cc"
	"hdd/internal/enginereg"
	"hdd/internal/server"
)

func TestEmptyValueReadsNonNil(t *testing.T) {
	part, err := enginereg.ChainPartition(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range enginereg.Names() {
		run := func(t *testing.T) {
			eng, err := enginereg.Build(name, enginereg.Options{Partition: part, WallInterval: 1})
			if err != nil {
				t.Fatal(err)
			}
			emptyValueReadsNonNil(t, eng)
		}
		if name == "HDD" { // HDD's subtests carry no engine prefix
			run(t)
		} else {
			t.Run(name, run)
		}
	}
}

// emptyValueReadsNonNil writes an empty value through eng and reads it
// back embedded and through a client of a server over eng, which closes
// eng when it closes.
func emptyValueReadsNonNil(t *testing.T, eng cc.Engine) {
	empty := hdd.GranuleID{Segment: 0, Key: 1}
	marker := hdd.GranuleID{Segment: 0, Key: 2} // written with empty
	never := hdd.GranuleID{Segment: 0, Key: 3}
	if err := hdd.Run(eng, 0, func(tx hdd.Txn) error {
		if err := tx.Write(empty, []byte{}); err != nil {
			return err
		}
		return tx.Write(marker, []byte("m"))
	}, hdd.RetryPolicy{}); err != nil {
		t.Fatal(err)
	}

	srv := server.New(eng, server.Options{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	defer func() {
		srv.Close()
		if err := <-served; err != nil {
			t.Errorf("Serve returned %v", err)
		}
	}()
	c, err := client.Dial(l.Addr().String(), client.WithConns(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	type reader struct {
		name string
		read func(hdd.Txn, hdd.GranuleID) ([]byte, error)
	}
	readers := []reader{{"Read", hdd.Txn.Read}}
	sides := []struct {
		name string
		b    hdd.Beginner
		rs   []reader
	}{
		{"embedded", eng, append(readers, reader{"ReadShared", func(tx hdd.Txn, g hdd.GranuleID) ([]byte, error) {
			sr, ok := tx.(cc.SharedReader)
			if !ok {
				return nil, errNoSharedRead
			}
			return sr.ReadShared(g)
		}})},
		{"client", c, readers},
	}
	for _, side := range sides {
		for _, class := range []hdd.ClassID{1, hdd.NoClass} {
			for _, r := range side.rs {
				t.Run(fmt.Sprintf("%s/class=%d/%s", side.name, class, r.name), func(t *testing.T) {
					// A read-only snapshot trails commits by a wall: commit
					// elsewhere until it covers the marker's transaction.
					for i := 0; ; i++ {
						var got, missing, m []byte
						err := hdd.Run(side.b, class, func(tx hdd.Txn) (err error) {
							if m, err = r.read(tx, marker); err != nil {
								return err
							}
							if got, err = r.read(tx, empty); err != nil {
								return err
							}
							missing, err = r.read(tx, never)
							return err
						}, hdd.RetryPolicy{})
						if errors.Is(err, errNoSharedRead) {
							t.Skip("no shared read path on this transaction")
						}
						if err != nil {
							t.Fatal(err)
						}
						if m == nil {
							if i == 1000 {
								t.Fatal("the marker's commit never became visible")
							}
							if err := hdd.Run(eng, 1, func(tx hdd.Txn) error {
								return tx.Write(hdd.GranuleID{Segment: 1, Key: uint64(i)}, []byte("x"))
							}, hdd.RetryPolicy{}); err != nil {
								t.Fatal(err)
							}
							continue
						}
						if got == nil || len(got) != 0 {
							t.Fatalf("read of an empty value = %#v, want a non-nil empty slice", got)
						}
						if missing != nil {
							t.Fatalf("read of a granule never written = %#v, want nil", missing)
						}
						return
					}
				})
			}
		}
	}
}

// errNoSharedRead: the transaction has no zero-copy read path to test.
var errNoSharedRead = errors.New("no shared read")

// TestEmptyValueSurvivesRecovery: an empty value stays a value after the
// log is replayed, and after it is loaded back from a snapshot.
func TestEmptyValueSurvivesRecovery(t *testing.T) {
	part, err := hdd.NewPartition([]string{"base"}, []hdd.ClassSpec{{Name: "base", Writes: 0}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := hdd.Config{Partition: part, Durability: hdd.DurabilityWAL, DataDir: t.TempDir()}
	empty, never := hdd.GranuleID{Segment: 0, Key: 1}, hdd.GranuleID{Segment: 0, Key: 2}
	eng, err := hdd.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := hdd.Run(eng, 0, func(tx hdd.Txn) error { return tx.Write(empty, []byte{}) }, hdd.RetryPolicy{}); err != nil {
		t.Fatal(err)
	}
	for _, from := range []string{"log", "snapshot"} {
		if from == "snapshot" {
			if err := eng.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		if eng, err = hdd.NewEngine(cfg); err != nil {
			t.Fatal(err)
		}
		var got, missing []byte
		if err := hdd.Run(eng, 0, func(tx hdd.Txn) (err error) {
			if got, err = tx.Read(empty); err != nil {
				return err
			}
			missing, err = tx.Read(never)
			return err
		}, hdd.RetryPolicy{}); err != nil {
			t.Fatal(err)
		}
		if got == nil || len(got) != 0 || missing != nil {
			t.Fatalf("recovered from the %s: empty value reads %#v, a granule never written %#v; want []byte{} and nil", from, got, missing)
		}
	}
	eng.Close()
}
