package mvstore

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"hdd/internal/vclock"
)

// TestDirectoryConcurrentGrowth: goroutines create and look up overlapping
// granules in an empty store while the directory doubles nine times. A
// lookup made after a create returned must find the chain that create
// returned, and when the dust settles every granule must be counted and
// survive a checkpoint round trip.
func TestDirectoryConcurrentGrowth(t *testing.T) {
	const workers, granules = 8, 4096 // 16 slots grow to 8192
	s := New()
	var created [granules]atomic.Pointer[chain]
	stop := make(chan struct{})
	var counter sync.WaitGroup
	counter.Add(1)
	go func() { // iterates tables while they are being replaced
		defer counter.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.TotalVersions()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < granules; i++ {
				k := (i*(2*w+1) + w*granules/workers) % granules
				gid := g(k%3, k)
				c := s.chainOf(gid, true)
				if c.g != gid {
					t.Errorf("create of %v returned the chain of %v", gid, c.g)
					return
				}
				if !created[k].CompareAndSwap(nil, c) && created[k].Load() != c {
					t.Errorf("two creates of %v returned different chains", gid)
					return
				}
				if err := s.InstallPending(gid, vclock.Time(w+1), []byte{byte(k), byte(w)}); err != nil {
					t.Error(err)
					return
				}
				s.Commit(gid, vclock.Time(w+1))
				j := (k * 31) % granules // a granule some create may have finished
				if want := created[j].Load(); want != nil {
					if got := s.chainOf(g(j%3, j), false); got != want {
						t.Errorf("lookup of %v after its create found %p, want %p", g(j%3, j), got, want)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	counter.Wait()
	if t.Failed() {
		return
	}
	if got := s.TotalVersions(); got != workers*granules {
		t.Fatalf("TotalVersions = %d, want %d", got, workers*granules)
	}
	var buf bytes.Buffer
	if _, err := s.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	r, _, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.TotalVersions(); got != workers*granules {
		t.Fatalf("reloaded TotalVersions = %d, want %d", got, workers*granules)
	}
	for k := 0; k < granules; k++ {
		if n := len(r.Versions(g(k%3, k))); n != workers {
			t.Fatalf("reloaded granule %v holds %d versions, want %d", g(k%3, k), n, workers)
		}
	}
}

// TestLookupNeverReturnsAnotherGranule: a lookup of an absent granule
// races the create of another granule whose probe starts at the same
// slot. The lookup must return nil, never the chain the create just stored
// in the slot the lookup found empty. D0:2 and D2:2 collide in a fresh
// 16-slot table; the engine's load test once read D2:2's version as
// D0:2's this way.
func TestLookupNeverReturnsAnotherGranule(t *testing.T) {
	absent, other := g(0, 2), g(2, 2)
	empty := make([]atomic.Pointer[chain], 16)
	i, _ := probe(empty, absent)
	if j, _ := probe(empty, other); i != j {
		t.Fatalf("%v and %v no longer share a first slot; pick another pair", absent, other)
	}
	for round := 0; round < 2000; round++ {
		s := New()
		var spinning, stop atomic.Bool
		done := make(chan *chain)
		go func() {
			for !stop.Load() {
				if c := s.chainOf(absent, false); c != nil {
					done <- c
					return
				}
				spinning.Store(true)
			}
			done <- nil
		}()
		for !spinning.Load() {
			runtime.Gosched()
		}
		s.chainOf(other, true)
		stop.Store(true)
		if c := <-done; c != nil {
			t.Fatalf("round %d: lookup of absent %v returned the chain of %v", round, absent, c.g)
		}
	}
}

// TestHeapPerGranule pins what the store keeps per granule: a granule of
// one committed 64-byte version costs its chain, one header that holds
// its array, the value the engine handed over, and a share of the
// directory table — three heap objects and at most 256 bytes, after a
// collection.
func TestHeapPerGranule(t *testing.T) {
	if raceEnabled {
		t.Skip("heap figures are not meaningful under -race")
	}
	const granules = 16384
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := New()
	for k := 0; k < granules; k++ {
		_ = s.InstallPending(g(0, k), 1, make([]byte, 64))
		s.Commit(g(0, k), 1)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	// A constant few objects are the Store, its directory table and noise.
	objects := float64(after.HeapObjects-before.HeapObjects-16) / granules
	bytes := float64(after.HeapAlloc-before.HeapAlloc) / granules
	if objects > 3 || bytes > 256 {
		t.Errorf("%.2f heap objects and %.0f B per granule, want at most 3 and 256", objects, bytes)
	}
}
