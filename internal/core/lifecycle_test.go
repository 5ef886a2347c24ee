package core

import (
	"errors"
	"runtime"
	"sync"
	"testing"

	"hdd/internal/cc"
	"hdd/internal/schema"
	"hdd/internal/vclock"
)

// TestConcurrentLifecycleBarrierObserver hammers Begin/Commit/Abort across
// every class while observer goroutines repeatedly draw barrier instants
// and re-evaluate I_old(m) for the same m. The begin barrier's contract is
// that I_old(m) is immutable once TickBarrier returns m: every transaction
// with an initiation tick below m is registered, so later begins (init >
// m) and later finishes (done > m) cannot change which transactions were
// active at m. Without the barrier, a begin in flight during the first
// evaluation could register before the second and make I_old(m) shrink.
// Run under -race via make check.
func TestConcurrentLifecycleBarrierObserver(t *testing.T) {
	e := newEngine(t, branching(t), nil)
	defer e.Close()

	const workers = 8
	iters := 300
	if testing.Short() {
		iters = 60
	}

	stop := make(chan struct{})
	var obsWG sync.WaitGroup
	for o := 0; o < 2; o++ {
		obsWG.Add(1)
		go func() {
			defer obsWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				m := e.act.TickBarrier(e.clock)
				first := make([]vclock.Time, e.act.Len())
				for c := 0; c < e.act.Len(); c++ {
					first[c] = e.act.Class(c).IOld(m)
					if first[c] > m {
						t.Errorf("I_old(%d) = %d > m for class %d", m, first[c], c)
					}
				}
				runtime.Gosched()
				for c := 0; c < e.act.Len(); c++ {
					if again := e.act.Class(c).IOld(m); again != first[c] {
						t.Errorf("I_old(%d) for class %d changed between evaluations: %d then %d",
							m, c, first[c], again)
					}
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			class := schema.ClassID(w % e.part.NumClasses())
			g := gr(int(class), w) // private root key per worker
			for i := 0; i < iters; i++ {
				txn, err := e.Begin(class)
				if err != nil {
					t.Error(err)
					return
				}
				if err := txn.Write(g, []byte{byte(i)}); err != nil {
					var ae *cc.AbortError
					if errors.As(err, &ae) {
						continue // rejection aborted the transaction
					}
					t.Error(err)
					return
				}
				// Protocol A read up the hierarchy where one exists.
				if spec := e.part.Class(class); len(spec.Reads) > 0 {
					if _, err := txn.Read(gr(int(spec.Reads[0]), 0)); err != nil {
						t.Error(err)
						return
					}
				}
				if i%4 == 3 {
					err = txn.Abort()
				} else {
					err = txn.Commit()
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	obsWG.Wait()
	if n := e.ActiveTxns(); n != 0 {
		t.Fatalf("%d transactions still registered after all finished", n)
	}
}
