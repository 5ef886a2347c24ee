package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"hdd/internal/cc"
	"hdd/internal/sched"
	"hdd/internal/schema"
	"hdd/internal/vclock"
	"hdd/internal/workload"
)

// TestWallCycleRegression drives the long-scan inventory workload with
// concurrent reports for many seeds and requires serializability — the
// reproduction harness that isolated the begin/finish-barrier bugs.
func TestWallCycleRegression(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		inv, err := workload.NewInventory(workload.InventoryConfig{Items: 12, WithAudit: true, ReorderPoint: 15, ScanWindow: 4096})
		if err != nil {
			t.Fatal(err)
		}
		rec := sched.NewRecorder()
		e, err := NewEngine(Config{Partition: inv.Partition(), Recorder: rec, WallInterval: 128})
		if err != nil {
			t.Fatal(err)
		}
		var wtMu sync.Mutex
		walls := map[cc.TxnID][]vclock.Time{}
		var wg sync.WaitGroup
		for c := 0; c < 6; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				r := rand.New(rand.NewSource(seed*100 + int64(c)*11))
				for i := 0; i < 500; i++ {
					switch r.Intn(8) {
					case 0, 1, 2:
						retry(e, workload.ClassEventEntry, inv.EventEntry, r)
					case 3, 4:
						retry(e, workload.ClassInventory, inv.PostInventory, r)
					case 5:
						retry(e, workload.ClassReorder, inv.ReorderCheck, r)
					case 6:
						retry(e, workload.ClassAudit, inv.AuditEvents, r)
					default:
						ro, _ := e.BeginReadOnly()
						wtMu.Lock()
						walls[ro.ID()] = ro.(*readOnlyTxn).bounds
						wtMu.Unlock()
						_ = inv.Report(ro, r)
						_ = ro.Commit()
					}
				}
			}(c)
		}
		wg.Wait()
		g := rec.Build()
		if g.Serializable() {
			continue
		}
		cyc := g.FindCycle()
		fmt.Printf("seed %d CYCLE:\n%s\n", seed, g.ExplainCycle())
		for _, id := range cyc {
			wtMu.Lock()
			w := walls[id]
			wtMu.Unlock()
			if w != nil {
				fmt.Printf("  t%d = READ-ONLY wall components %v\n", id, w)
			} else {
				fmt.Printf("  t%d = update\n", id)
			}
		}
		// Post-hoc: recompute thresholds from the final table for each
		// cycle member and dump intervals covering interesting instants.
		for _, id := range cyc {
			if id == 0 {
				continue
			}
			fmt.Printf("  post-hoc I_old_0(%d) = %d, I_old_1(%d) = %d, I_old_4(%d) = %d\n",
				id, e.act.Class(0).IOld(id), id, e.act.Class(1).IOld(id), id, e.act.Class(4).IOld(id))
		}
		for cls := 0; cls < 5; cls++ {
			snap := e.act.Class(cls).Snapshot()
			var long [][2]int64
			for _, iv := range snap {
				if iv[1]-iv[0] > 100 {
					long = append(long, [2]int64{int64(iv[0]), int64(iv[1])})
				}
			}
			fmt.Printf("  class %d long intervals (>100 ticks): %v\n", cls, long)
		}
		t.Fatalf("seed %d: cycle found", seed)
	}
	t.Log("no cycles")
}

func retry(e *Engine, class schema.ClassID, fn func(cc.Txn, *rand.Rand) error, r *rand.Rand) {
	for a := 0; a < 100; a++ {
		tx, _ := e.Begin(class)
		if err := fn(tx, r); err != nil {
			_ = tx.Abort()
			if cc.IsAbort(err) {
				continue
			}
			panic(err)
		}
		if err := tx.Commit(); err != nil {
			if cc.IsAbort(err) {
				continue
			}
			panic(err)
		}
		return
	}
}
