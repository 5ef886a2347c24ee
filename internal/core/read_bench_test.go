package core

import (
	"testing"

	"hdd/internal/schema"
)

// BenchmarkReadScaling measures committed-read throughput as readers are
// added (`go test -run '^$' -bench ReadScaling -cpu 1,2,4,8
// ./internal/core/`). Every worker hammers the same hot granule, the
// worst case for any synchronization left on the read path: with the
// RCU-published chain snapshots, Protocol A and Protocol C reads load one
// atomic pointer and binary-search immutable memory, so throughput should
// scale with cores instead of serializing on a per-chain mutex. Run with
// -benchmem: the lock-free paths are 0 allocs/op at the store layer (the
// public Read adds the single defensive copy at the cc.Txn boundary).
func BenchmarkReadScaling(b *testing.B) {
	const depth = 2
	setup := func(b *testing.B) *Engine {
		e := benchEngine(b, benchPartChain(b, depth))
		b.Cleanup(func() { e.Close() })
		w, err := e.Begin(0)
		if err != nil {
			b.Fatal(err)
		}
		if err := w.Write(gr(0, 1), []byte("hot-value")); err != nil {
			b.Fatal(err)
		}
		if err := w.Commit(); err != nil {
			b.Fatal(err)
		}
		e.Walls().Force() // wall above the seed, for Protocol C
		return e
	}

	// Protocol A: update transactions of the bottom class reading the top
	// segment — the paper's headline no-registration cross-class read.
	b.Run("protocolA", func(b *testing.B) {
		e := setup(b)
		b.RunParallel(func(pb *testing.PB) {
			tx, err := e.Begin(schema.ClassID(depth - 1))
			if err != nil {
				b.Fatal(err)
			}
			defer tx.Commit()
			for pb.Next() {
				if _, err := tx.Read(gr(0, 1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	})

	// Protocol C: wall-pinned read-only transactions — the ad-hoc reader
	// path that must never block an update or another reader.
	b.Run("protocolC", func(b *testing.B) {
		e := setup(b)
		b.RunParallel(func(pb *testing.PB) {
			tx, err := e.BeginReadOnly()
			if err != nil {
				b.Fatal(err)
			}
			defer tx.Commit()
			for pb.Next() {
				if _, err := tx.Read(gr(0, 1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}
