package hdd_test

import (
	"math/rand"
	"sync"
	"testing"

	"hdd/internal/core"
	"hdd/internal/sched"
	"hdd/internal/workload"
)

func soakVariant(t *testing.T, gc int64, ops, reports bool, seed int64) bool {
	inv, err := workload.NewInventory(workload.InventoryConfig{Items: 12, WithAudit: true, ReorderPoint: 15, ScanWindow: 4096})
	if err != nil {
		t.Fatal(err)
	}
	rec := sched.NewRecorder()
	cfg := core.Config{Partition: inv.Partition(), Recorder: rec, WallInterval: 128, GCEveryCommits: gc}
	if ops {
		cfg.DataDir, cfg.SnapshotBytes = t.TempDir(), -1
	}
	eng, err := core.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var wg sync.WaitGroup
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed*100 + int64(c)*11))
			for i := 0; i < 500; i++ {
				switch r.Intn(8) {
				case 0, 1, 2:
					runRetry(t, eng, workload.ClassEventEntry, inv.EventEntry, r)
				case 3, 4:
					runRetry(t, eng, workload.ClassInventory, inv.PostInventory, r)
				case 5:
					runRetry(t, eng, workload.ClassReorder, inv.ReorderCheck, r)
				case 6:
					runRetry(t, eng, workload.ClassAudit, inv.AuditEvents, r)
				default:
					if reports {
						ro, _ := eng.BeginReadOnly()
						_ = inv.Report(ro, r)
						_ = ro.Commit()
					}
				}
			}
		}(c)
	}
	if ops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if err := eng.Snapshot(); err != nil {
					t.Errorf("snapshot: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	return rec.Build().Serializable()
}

// TestSerializabilityMatrix runs the inventory soak under every
// combination of the operational features that historically interacted
// with the concurrency machinery (GC, snapshots of a durable engine,
// read-only reports) and requires a serializable schedule from each. The
// "full" and "no-ops" rows are regression tests for three distinct bugs:
// the begin barrier (late initiation registration shrinking thresholds),
// the finish barrier (commit ticks landing late and inflating thresholds),
// and garbage collection pruning state still referenced by read-only
// transactions pinned to superseded walls.
func TestSerializabilityMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("soak matrix")
	}
	cases := []struct {
		name    string
		gc      int64
		ops     bool
		reports bool
	}{
		{"full", 200, true, true},
		{"no-gc", 0, true, true},
		{"no-ops", 200, false, true},
		{"no-reports", 200, true, false},
		{"only-updates", 0, false, false},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				if !soakVariant(t, c.gc, c.ops, c.reports, seed) {
					t.Fatalf("%s seed %d: schedule not serializable", c.name, seed)
				}
			}
		})
	}
}
