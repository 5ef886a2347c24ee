package server_test

import (
	"testing"
	"time"

	"hdd"
	"hdd/client"
	"hdd/internal/core"
	"hdd/internal/server"
)

// BenchmarkUpdateTxnRoundTrips times one update transaction's round trips
// over loopback through the real client: a begin, a Protocol A read, a
// Protocol B read, a 64-byte write and the commit, one after another, as
// update_durable's transactions run. ns/op and allocs/op are per
// transaction, server and client together; inline/txn counts the requests
// the session goroutine ran. "wal" commits through a log in a temporary
// directory, so its figure includes one fsync per transaction.
//
//	go test -run '^$' -bench UpdateTxnRoundTrips -benchtime 2s ./internal/server/
func BenchmarkUpdateTxnRoundTrips(b *testing.B) {
	for _, durable := range []bool{false, true} {
		name := map[bool]string{false: "mem", true: "wal"}[durable]
		b.Run(name, func(b *testing.B) {
			cfg := core.Config{WallInterval: 64, GCEveryCommits: 64, TxnTimeout: 10 * time.Second}
			if durable {
				cfg.DataDir, cfg.SnapshotBytes = b.TempDir(), -1
			}
			_, addr := startServer(b, 2, cfg, server.Options{})
			c, err := client.Dial(addr)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			value := make([]byte, 64)
			txn := func(i int) {
				k := uint64(i % 4096)
				tx, err := c.Begin(1)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := tx.Read(hdd.GranuleID{Segment: 0, Key: k}); err != nil {
					b.Fatal(err)
				}
				if _, err := tx.Read(hdd.GranuleID{Segment: 1, Key: k}); err != nil {
					b.Fatal(err)
				}
				if err := tx.Write(hdd.GranuleID{Segment: 1, Key: k}, value); err != nil {
					b.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < 100; i++ {
				txn(i)
			}
			before, _ := c.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				txn(i)
			}
			b.StopTimer()
			after, _ := c.Stats()
			b.ReportMetric(float64(after["inline_requests"]-before["inline_requests"])/float64(b.N), "inline/txn")
		})
	}
}
