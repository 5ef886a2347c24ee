package core

import (
	"sync/atomic"
	"testing"

	"hdd/internal/cc"
	"hdd/internal/obs"
	"hdd/internal/schema"
)

// BenchmarkParallelLifecycle measures whole-lifecycle throughput under a
// multi-class workload: workers spread across every class of a depth-8
// chain, each iteration running begin → read up the hierarchy → write own
// root → commit. Run with `go test -run '^$' -bench ParallelLifecycle
// -cpu 1,2,4,8 ./internal/core/` to see how the sharded begin/commit paths
// scale: with the per-class begin windows, striped registry, and sharded
// counters, no class's lifecycle serializes against another's except at
// the logical clock itself.
func BenchmarkParallelLifecycle(b *testing.B) {
	benchParallelLifecycle(b, nil)
}

// BenchmarkParallelLifecycleObs is the identical workload with an
// observability plane attached. The engine counts the same events either
// way; the plane adds its trace events (the stride-sampled begin-window
// event, wall releases, GC prunes) and the registration that exposes the
// counters. The delta against BenchmarkParallelLifecycle is the plane's
// whole-lifecycle overhead (budget: <=5%, EXPERIMENTS.md).
func BenchmarkParallelLifecycleObs(b *testing.B) {
	benchParallelLifecycle(b, obs.NewPlane())
}

func benchParallelLifecycle(b *testing.B, plane *obs.Plane) {
	const depth = 8
	// Steady-state configuration: automatic GC keeps version chains and
	// activity history bounded, as any long-running deployment would.
	e, err := NewEngine(Config{Partition: benchPartChain(b, depth),
		WallInterval: 1024, GCEveryCommits: 2048, Obs: plane})
	if err != nil {
		b.Fatal(err)
	}
	seed, err := e.Begin(0)
	if err != nil {
		b.Fatal(err)
	}
	if err := seed.Write(gr(0, 1), []byte("v")); err != nil {
		b.Fatal(err)
	}
	if err := seed.Commit(); err != nil {
		b.Fatal(err)
	}
	var workers atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := int(workers.Add(1) - 1)
		class := schema.ClassID(id % depth)
		base := (id + 1) * 1024 // private key space per worker
		i := 0
		for pb.Next() {
			i++
			tx, err := e.Begin(class)
			if err != nil {
				b.Fatal(err)
			}
			// Protocol A for every class but the top, Protocol B there.
			if _, err := tx.Read(gr(0, 1)); err != nil {
				b.Fatal(err)
			}
			if err := tx.Write(gr(int(class), base+i%64), []byte{byte(i)}); err != nil {
				if cc.IsAbort(err) {
					continue
				}
				b.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
