package hdd_test

// Pins retry.go's Beginner claim: every engine in the repo — and the
// networked client — satisfies hdd.Beginner, so hdd.Run/RunCtx accept any
// of them unchanged. The compile-time assertions cover the concrete types;
// the conversion function proves the interface-level claim (any cc.Engine
// is a Beginner, because Txn and ClassID are type aliases); the runtime
// loop keeps the registry honest as engines are added.

import (
	"testing"

	"hdd"
	"hdd/client"
	"hdd/internal/cc"
	"hdd/internal/core"
	"hdd/internal/enginereg"
	"hdd/internal/fault"
	"hdd/internal/sdd1"
	"hdd/internal/segctl"
	"hdd/internal/tso"
	"hdd/internal/twopl"
)

var (
	_ hdd.Beginner = (*core.Engine)(nil)
	_ hdd.Beginner = (*segctl.Engine)(nil)
	_ hdd.Beginner = (*sdd1.Engine)(nil)
	_ hdd.Beginner = (*twopl.Engine)(nil)
	_ hdd.Beginner = (*tso.Basic)(nil)
	_ hdd.Beginner = (*tso.MVTO)(nil)
	_ hdd.Beginner = (*fault.Engine)(nil)
	_ hdd.Beginner = (*client.Client)(nil)

	// The interface-to-interface claim itself: this compiles only if every
	// cc.Engine is assignable to hdd.Beginner.
	_ = func(e cc.Engine) hdd.Beginner { return e }
)

// TestEveryRegistryEngineRunsUnderRetry drives one committed transaction
// through hdd.Run against each registered engine, used purely as an
// hdd.Beginner.
func TestEveryRegistryEngineRunsUnderRetry(t *testing.T) {
	part, err := enginereg.ChainPartition(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range enginereg.Names() {
		t.Run(name, func(t *testing.T) {
			eng, err := enginereg.Build(name, enginereg.Options{Partition: part})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			var b hdd.Beginner = eng
			err = hdd.Run(b, 0, func(tx hdd.Txn) error {
				return tx.Write(hdd.GranuleID{Segment: 0, Key: 1}, []byte("v"))
			}, hdd.RetryPolicy{})
			if err != nil {
				t.Fatalf("hdd.Run over %s: %v", name, err)
			}
			if eng.Stats().Commits < 1 {
				t.Fatalf("%s counted no commits", name)
			}
		})
	}
}

// TestWriteBuffersAreCallerOwned: the version store keeps the slice an
// engine hands it, so every engine must copy a written value at its Write
// boundary. Scribbling over the buffer after Write must change neither the
// transaction's own read nor what later transactions read.
func TestWriteBuffersAreCallerOwned(t *testing.T) {
	part, err := enginereg.ChainPartition(2)
	if err != nil {
		t.Fatal(err)
	}
	g := hdd.GranuleID{Segment: 0, Key: 1}
	for _, name := range enginereg.Names() {
		t.Run(name, func(t *testing.T) {
			eng, err := enginereg.Build(name, enginereg.Options{Partition: part})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			err = hdd.Run(eng, 0, func(tx hdd.Txn) error {
				for _, v := range []string{"first", "second"} { // install, then overwrite
					buf := []byte(v)
					if err := tx.Write(g, buf); err != nil {
						return err
					}
					copy(buf, "######")
					got, err := tx.Read(g)
					if err != nil {
						return err
					}
					if string(got) != v {
						t.Errorf("own read after scribbling over the written buffer: %q, want %q", got, v)
					}
				}
				return nil
			}, hdd.RetryPolicy{})
			if err != nil {
				t.Fatal(err)
			}
			err = hdd.Run(eng, 0, func(tx hdd.Txn) error {
				got, err := tx.Read(g)
				if err == nil && string(got) != "second" {
					t.Errorf("committed value %q, want %q", got, "second")
				}
				return err
			}, hdd.RetryPolicy{})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
