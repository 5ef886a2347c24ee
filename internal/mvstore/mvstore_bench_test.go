package mvstore

import (
	"fmt"
	"testing"

	"hdd/internal/schema"
	"hdd/internal/vclock"
)

func benchStore(chainLen int) (*Store, schema.GranuleID, vclock.Time) {
	s := New()
	g := schema.GranuleID{Segment: 0, Key: 1}
	var last vclock.Time
	for i := 1; i <= chainLen; i++ {
		ts := vclock.Time(i * 2)
		_ = s.InstallPending(g, ts, []byte{byte(i)})
		s.Commit(g, ts)
		last = ts
	}
	return s, g, last
}

func BenchmarkReadCommittedBefore(b *testing.B) {
	for _, n := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("chain-%d", n), func(b *testing.B) {
			s, g, last := benchStore(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, ok := s.ReadCommittedBefore(g, last+1); !ok {
					b.Fatal("miss")
				}
			}
		})
	}
}

func BenchmarkReadRegistered(b *testing.B) {
	s, g, last := benchStore(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, ok, wait := s.ReadRegistered(g, last+1, last+1)
		if !ok || wait != nil {
			b.Fatal("unexpected")
		}
	}
}

// BenchmarkInstallCheckedCommit times the Protocol B write path — checked
// install plus commit at the chain's tail — on chains of at least 1, 16 and
// 256 versions, so a per-commit cost that grows with the chain shows up as
// a slope across the sub-benchmarks. A prune every 1024 writes back to the
// starting length bounds the chain, and the benchmark's memory.
func BenchmarkInstallCheckedCommit(b *testing.B) {
	for _, n := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("chain-%d", n), func(b *testing.B) {
			s, g, last := benchStore(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ts := last + 2*vclock.Time(i+1)
				if err := s.InstallChecked(g, ts, []byte{1}); err != nil {
					b.Fatal(err)
				}
				s.Commit(g, ts)
				if i%1024 == 1023 {
					s.GC(ts - 2*vclock.Time(n) + 1)
				}
			}
		})
	}
}

func BenchmarkGC(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, _, last := benchStore(512)
		b.StartTimer()
		s.GC(last)
	}
}

// BenchmarkGCSparse is the engine's steady state: a large store of which a
// GC cycle can shrink only the few chains written since the last one. Each
// iteration commits a second version on 64 of 16 384 chains and prunes them.
func BenchmarkGCSparse(b *testing.B) {
	const chains, dirty = 16384, 64
	s := New()
	key := func(k int) schema.GranuleID { return schema.GranuleID{Segment: 0, Key: uint64(k)} }
	for k := 0; k < chains; k++ {
		_ = s.InstallPending(key(k), 1, []byte{1})
		s.Commit(key(k), 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ts := vclock.Time(i + 2)
		for d := 0; d < dirty; d++ {
			k := (i*dirty + d) % chains
			_ = s.InstallPending(key(k), ts, []byte{1})
			s.Commit(key(k), ts)
		}
		b.StartTimer()
		if pruned := s.GC(ts + 1); pruned != dirty {
			b.Fatalf("pruned %d, want %d", pruned, dirty)
		}
	}
}
