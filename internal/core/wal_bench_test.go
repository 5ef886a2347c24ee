package core

// BenchmarkWALCommit measures the commit path under each durability
// arrangement — memory-only and group-committed WAL under several flush
// policies — at 1 and 8 concurrent committers. A lone committer pays one
// fsync per commit; group commit amortizes the sync across every
// committer that arrives during the previous flush, which the syncs and
// records/batch metrics show. Run it with `go test -run '^$' -bench
// WALCommit ./internal/core/`. The net-shaped arm is the end-to-end
// benchmark's update_durable seen from the log: a 1 ms device and eight
// committers that take half of that to come back.

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"hdd/internal/schema"
	"hdd/internal/vfs"
)

func BenchmarkWALCommit(b *testing.B) {
	type mode struct {
		name string
		cfg  func(dir string) Config
	}
	base := func() Config {
		return Config{WallInterval: 256, GCEveryCommits: 256}
	}
	walCfg := func(dir string) Config {
		cfg := base()
		cfg.DataDir = dir
		cfg.SnapshotBytes = -1 // measure the log, not snapshot cycles
		return cfg
	}
	modes := []mode{
		{"none", func(string) Config { return base() }},
		{"group", walCfg},
	}
	for _, m := range modes {
		for _, committers := range []int{1, 8} {
			b.Run(fmt.Sprintf("mode=%s/c=%d", m.name, committers), func(b *testing.B) {
				benchCommit(b, m.cfg(b.TempDir()), committers, 0, 0)
			})
		}
	}
	b.Run("mode=net-shaped/c=8", func(b *testing.B) {
		cfg := walCfg(b.TempDir())
		cfg.FS = msSyncFS{vfs.OS{}}
		benchCommit(b, cfg, 8, 500*time.Microsecond, 130*time.Microsecond)
	})
}

// msSyncFS is the real filesystem with every file's Sync replaced by a
// one-millisecond wait: the benchmark's storage floor without its disk.
type msSyncFS struct{ vfs.FS }

func (fs msSyncFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return msSyncFile{f}, nil
}

type msSyncFile struct{ vfs.File }

func (msSyncFile) Sync() error {
	spin(time.Millisecond)
	return nil
}

// spin waits d without sleeping: a sleeping Go process keeps no delay
// finer than a millisecond (and stretches some to two), while a yielding
// one keeps its timers exact.
func spin(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
		runtime.Gosched()
	}
}

// benchCommit runs b.N single-write commits spread over the given number
// of concurrent committers. Each committer owns one granule, so version
// timestamps are monotone per chain and no MVTO rejection occurs; GC
// keeps the chains short. A committer thinks for think between an
// acknowledgement and its next Write and for gap between the Write and
// its Commit (both spun, so they may be sub-millisecond); with either set
// the run also reports commits per sync and the commit call's p50/p95.
func benchCommit(b *testing.B, cfg Config, committers int, think, gap time.Duration) {
	p, err := schema.NewPartition(
		[]string{"seg0"},
		[]schema.ClassSpec{{Name: "writer", Writes: 0}})
	if err != nil {
		b.Fatal(err)
	}
	cfg.Partition = p
	e, err := NewEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	value := make([]byte, 64)

	acks := make([][]time.Duration, committers)
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < committers; w++ {
		n := b.N / committers
		if w < b.N%committers {
			n++
		}
		wg.Add(1)
		go func(w, n int) {
			defer wg.Done()
			g := schema.GranuleID{Segment: 0, Key: uint64(w)}
			for i := 0; i < n; i++ {
				spin(think)
				txn, err := e.Begin(0)
				if err != nil {
					b.Error(err)
					return
				}
				if err := txn.Write(g, value); err != nil {
					b.Error(err)
					return
				}
				spin(gap)
				start := time.Now()
				if err := txn.Commit(); err != nil {
					b.Error(err)
					return
				}
				if think+gap > 0 {
					acks[w] = append(acks[w], time.Since(start))
				}
			}
		}(w, n)
	}
	wg.Wait()
	b.StopTimer()
	if e.dur != nil {
		st := e.dur.log.Stats()
		b.ReportMetric(float64(st.Syncs), "syncs")
		if st.Batches > 0 {
			b.ReportMetric(float64(st.Records)/float64(st.Batches), "records/batch")
		}
		if think+gap > 0 {
			var all []time.Duration
			for _, a := range acks {
				all = append(all, a...)
			}
			sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
			b.ReportMetric(float64(b.N)/float64(st.Syncs), "commits/sync")
			b.ReportMetric(float64(all[len(all)/2].Microseconds()), "p50-ack-µs")
			b.ReportMetric(float64(all[len(all)*95/100].Microseconds()), "p95-ack-µs")
		}
	}
}
