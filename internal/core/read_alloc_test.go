package core

import (
	"testing"

	"hdd/internal/cc"
	"hdd/internal/mvstore"
	"hdd/internal/schema"
	"hdd/internal/vclock"
)

// TestLockFreeReadZeroAllocs pins the wait-free committed-read path at
// zero allocations, from the store entry points up through the engine's
// ReadShared: the RCU snapshot load and binary search must not allocate,
// and neither may anything the Protocol A/C paths add on top. A
// regression here (a copy, a boxed key, a closure capture) is a
// performance bug the read-scaling bench would only show as noise.
func TestLockFreeReadZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}

	t.Run("store", func(t *testing.T) {
		s := mvstore.New()
		gid := gr(0, 1)
		for ts := vclock.Time(10); ts <= 100; ts += 10 {
			if err := s.InstallPending(gid, ts, []byte("value")); err != nil {
				t.Fatal(err)
			}
			s.CommitAt(gid, ts, ts+1)
		}
		if allocs := testing.AllocsPerRun(1000, func() {
			if _, _, ok := s.ReadCommittedBefore(gid, 1000); !ok {
				t.Fatal("read missed")
			}
		}); allocs != 0 {
			t.Errorf("ReadCommittedBefore: %v allocs/op, want 0", allocs)
		}
		if allocs := testing.AllocsPerRun(1000, func() {
			if _, _, ok := s.ReadCommittedAsOf(gid, 1000); !ok {
				t.Fatal("read missed")
			}
		}); allocs != 0 {
			t.Errorf("ReadCommittedAsOf: %v allocs/op, want 0", allocs)
		}
	})

	t.Run("engine", func(t *testing.T) {
		e, err := NewEngine(Config{Partition: twoLevel(t), WallInterval: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		seed, err := e.Begin(0)
		if err != nil {
			t.Fatal(err)
		}
		if err := seed.Write(gr(0, 1), []byte("seed")); err != nil {
			t.Fatal(err)
		}
		if err := seed.Commit(); err != nil {
			t.Fatal(err)
		}
		e.Walls().Force()

		// Protocol A: an update transaction's cross-class read.
		up, err := e.Begin(1)
		if err != nil {
			t.Fatal(err)
		}
		defer up.Commit()
		shared := up.(cc.SharedReader)
		if allocs := testing.AllocsPerRun(1000, func() {
			if _, err := shared.ReadShared(gr(0, 1)); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("Protocol A ReadShared: %v allocs/op, want 0", allocs)
		}

		// Protocol C: a wall-pinned read-only transaction.
		ro, err := e.BeginReadOnly()
		if err != nil {
			t.Fatal(err)
		}
		defer ro.Commit()
		shared = ro.(cc.SharedReader)
		if allocs := testing.AllocsPerRun(1000, func() {
			if _, err := shared.ReadShared(gr(0, 1)); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("Protocol C ReadShared: %v allocs/op, want 0", allocs)
		}
	})
}

// Allocation budgets of whole transactions, in objects per transaction,
// measured with testing.AllocsPerRun on an engine with no plane attached.
// The read-only budgets cover begin, three ReadShared calls and commit; the
// update budget covers the BenchmarkUpdateTxnCycle shape (two copying
// Reads, one Write, commit). A Protocol C transaction allocates only
// itself, the path variant also its bounds; the update cycle allocates
// the transaction, its read chunk, the caller's value and the engine's
// copy of it.
const (
	protocolCTxnAllocs   = 1
	pathReadOnlyAllocs   = 2
	updateTxnCycleAllocs = 4
)

// TestTxnAllocBudgets pins the per-transaction allocations of the Protocol C
// read-only transaction, its critical-path variant and the update cycle. A
// rise is a regression the end-to-end benchmark would only show as noise.
func TestTxnAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	e, err := NewEngine(Config{Partition: branching(t), WallInterval: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for s := 0; s < 3; s++ {
		tx, err := e.Begin(schema.ClassID(s))
		if err != nil {
			t.Fatal(err)
		}
		write(t, tx, gr(s, 1), "v")
		mustCommit(t, tx)
	}
	e.Walls().Force()

	readOnly := func(begin func() (cc.Txn, error)) func(*testing.T) {
		return func(t *testing.T) {
			tx, err := begin()
			if err != nil {
				t.Fatal(err)
			}
			sr := tx.(cc.SharedReader)
			for s := 0; s < 3; s++ {
				if _, err := sr.ReadShared(gr(s, 1)); err != nil {
					t.Fatal(err)
				}
			}
			mustCommit(t, tx)
		}
	}
	i := 0
	update := func(t *testing.T) {
		i++
		tx, err := e.Begin(2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Read(gr(0, 1)); err != nil {
			t.Fatal(err)
		}
		g := gr(2, i%64)
		old, err := tx.Read(g)
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Write(g, append(old[:0:0], byte(i))); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)
	}
	for _, c := range []struct {
		name   string
		budget float64
		run    func(*testing.T)
	}{
		{"protocol-C", protocolCTxnAllocs, readOnly(e.BeginReadOnly)},
		{"path", pathReadOnlyAllocs, readOnly(func() (cc.Txn, error) { return e.BeginReadOnlyOnPath(2) })},
		{"update", updateTxnCycleAllocs, update},
	} {
		t.Run(c.name, func(t *testing.T) {
			if allocs := testing.AllocsPerRun(500, func() { c.run(t) }); allocs > c.budget {
				t.Errorf("%v allocs/txn, budget %v", allocs, c.budget)
			}
		})
	}
}
