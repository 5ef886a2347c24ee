package mvstore

import (
	"sync"
	"sync/atomic"
	"testing"

	"hdd/internal/vclock"
)

// TestConcurrentReadersNeverTornOrMutated hammers one hot chain with
// committing writers, pruning GC, and lock-free readers, and asserts the
// RCU read path's two guarantees (run under -race):
//
//   - no torn reads: every returned value is internally consistent with
//     the version timestamp it was returned alongside;
//   - no later mutation: a slice returned to a reader never changes
//     afterwards, no matter how many commits, own-write overwrites, and
//     GC passes race it.
func TestConcurrentReadersNeverTornOrMutated(t *testing.T) {
	const (
		valueLen = 32
		readers  = 4
		duration = 3000 // writer commits
	)
	s := New()
	gid := g(0, 1)

	// high is the largest committed timestamp, published after commit so
	// readers pick bounds that see it.
	var high atomic.Int64
	mkValue := func(ts vclock.Time) []byte {
		v := make([]byte, valueLen)
		for i := range v {
			v[i] = byte(ts)
		}
		return v
	}
	// Seed so every read finds something.
	if err := s.InstallPending(gid, 1, mkValue(1)); err != nil {
		t.Fatal(err)
	}
	s.Commit(gid, 1)
	high.Store(1)

	// announced[r] is the frontier reader r last announced. A reader stores
	// it before deriving a bound from a fresh load of high and never lowers
	// or clears it, so every bound it uses lies above its announcement, and
	// above any older announcement GC may still see.
	var announced [readers]atomic.Int64
	for r := range announced {
		announced[r].Store(1)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Writer: install + overwrite + commit at increasing timestamps; the
	// overwrite exercises UpdatePending's swap-not-mutate obligation.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for ts := vclock.Time(2); ts < 2+duration; ts++ {
			if err := s.InstallPending(gid, ts, mkValue(100)); err != nil {
				t.Error(err)
				return
			}
			s.UpdatePending(gid, ts, mkValue(ts))
			s.Commit(gid, ts)
			high.Store(int64(ts))
		}
	}()

	// GC: prune behind the committed frontier. The watermark is the
	// minimum of a point trailing the writer and every reader's
	// announcement — the engine's min-over-active rule (core/gc.go) — so no
	// reader's bound can reach below it, however long the reader was
	// descheduled between choosing its bound and using it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			w := high.Load() - 64
			for r := range announced {
				w = min(w, announced[r].Load())
			}
			if w > 0 {
				s.GC(vclock.Time(w))
			}
		}
	}()

	// Readers: lock-free reads at the committed frontier; every byte of
	// the returned slice must match the version timestamp. Each reader
	// keeps its first slice and re-verifies it at the end — publication
	// and pruning must never have touched it.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(mine *atomic.Int64) {
			defer wg.Done()
			var heldVal []byte
			var heldTS vclock.Time
			check := func(val []byte, ts vclock.Time) bool {
				if len(val) != valueLen {
					t.Errorf("read at ts %d returned %d bytes, want %d", ts, len(val), valueLen)
					return false
				}
				for i, b := range val {
					if b != byte(ts) {
						t.Errorf("torn read: byte %d of version %d is %d, want %d", i, ts, b, byte(ts))
						return false
					}
				}
				return true
			}
			for {
				select {
				case <-stop:
					if heldVal != nil && !check(heldVal, heldTS) {
						t.Errorf("held slice from version %d was mutated after return", heldTS)
					}
					return
				default:
				}
				mine.Store(high.Load())
				bound := vclock.Time(high.Load()) + 1
				val, ts, ok := s.ReadCommittedBefore(gid, bound)
				if !ok {
					t.Errorf("no committed version below %d", bound)
					return
				}
				if !check(val, ts) {
					return
				}
				if heldVal == nil {
					heldVal, heldTS = val, ts
				}
			}
		}(&announced[r])
	}
	wg.Wait()
}

// TestConcurrentPruneQueue runs committing writers against two GC
// goroutines that drain the prune queue at the same time (run under
// -race). Whatever the interleaving, no version may be pruned twice or
// lost, and once the writers stop one pass above every timestamp must
// leave each chain its latest version only — what a sweep of the whole
// store would leave.
func TestConcurrentPruneQueue(t *testing.T) {
	const (
		writers   = 3
		chainsPer = 32
		rounds    = 60
	)
	s := New()
	var clock atomic.Int64 // source of unique, increasing timestamps
	var pruned atomic.Int64
	stop := make(chan struct{})
	var gcs, wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		gcs.Add(1)
		go func() {
			defer gcs.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Every committed version is fair game: nothing reads here.
				pruned.Add(int64(s.GC(vclock.Infinity)))
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := 0; k < chainsPer; k++ {
					gid := g(w, k)
					ts := vclock.Time(clock.Add(1))
					if err := s.InstallChecked(gid, ts, []byte{byte(ts)}); err != nil {
						t.Error(err)
						return
					}
					if r%7 == 3 {
						s.Abort(gid, ts)
					} else {
						s.Commit(gid, ts)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	gcs.Wait()
	pruned.Add(int64(s.GC(vclock.Infinity)))

	st := s.Stats()
	if left := s.TotalVersions(); left != writers*chainsPer {
		t.Errorf("%d versions left, want one per chain (%d)", left, writers*chainsPer)
	}
	if got := st.VersionsInstalled - st.VersionsAborted - pruned.Load(); got != writers*chainsPer {
		t.Errorf("installed %d - aborted %d - pruned %d = %d, want %d",
			st.VersionsInstalled, st.VersionsAborted, pruned.Load(), got, writers*chainsPer)
	}
	if q := queuedChains(s); len(q) != 0 {
		t.Errorf("%d single-version chains still queued", len(q))
	}
}
