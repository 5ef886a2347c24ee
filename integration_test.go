package hdd_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"hdd/internal/cc"
	"hdd/internal/core"
	"hdd/internal/sched"
	"hdd/internal/schema"
	"hdd/internal/sdd1"
	"hdd/internal/sim"
	"hdd/internal/tso"
	"hdd/internal/twopl"
	"hdd/internal/workload"
)

// engineSet builds one engine of every kind over the given partition, each
// with its own recorder.
func engineSet(t *testing.T, part *schema.Partition) map[string]struct {
	eng cc.Engine
	rec *sched.Recorder
} {
	t.Helper()
	out := map[string]struct {
		eng cc.Engine
		rec *sched.Recorder
	}{}
	add := func(name string, eng cc.Engine, err error, rec *sched.Recorder) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = struct {
			eng cc.Engine
			rec *sched.Recorder
		}{eng, rec}
	}
	r1 := sched.NewRecorder()
	e1, err := core.NewEngine(core.Config{Partition: part, Recorder: r1, WallInterval: 64, GCEveryCommits: 100})
	add("HDD", e1, err, r1)
	r2 := sched.NewRecorder()
	e2, err := sdd1.NewEngine(sdd1.Config{Partition: part, Recorder: r2})
	add("SDD-1", e2, err, r2)
	r3 := sched.NewRecorder()
	add("MV2PL", twopl.NewEngine(twopl.Config{Variant: twopl.MultiVersion, Recorder: r3}), nil, r3)
	r4 := sched.NewRecorder()
	add("2PL", twopl.NewEngine(twopl.Config{Variant: twopl.Strict, Recorder: r4}), nil, r4)
	r5 := sched.NewRecorder()
	add("TO", tso.NewBasic(tso.BasicConfig{Recorder: r5}), nil, r5)
	r6 := sched.NewRecorder()
	add("MVTO", tso.NewMVTO(tso.MVTOConfig{Recorder: r6}), nil, r6)
	return out
}

// TestCrossEngineBankingInvariant: the same deterministic workload (each
// committed transfer adds exactly its delta) leaves every engine with an
// identical, correct total — the engines agree on the final state even
// though their schedules differ.
func TestCrossEngineBankingInvariant(t *testing.T) {
	bank, err := workload.NewBanking(16)
	if err != nil {
		t.Fatal(err)
	}
	for name, pair := range engineSet(t, bank.Partition()) {
		var applied sync.Map // txn id -> delta, committed only
		transfer := func(tx cc.Txn, r *rand.Rand) error {
			acct := r.Intn(16)
			delta := int64(r.Intn(200) - 100)
			if err := bank.TransferDelta(tx, acct, delta); err != nil {
				return err
			}
			applied.Store(tx.ID(), delta)
			return nil
		}
		res, err := sim.Run(sim.Config{
			Engine: pair.eng, Clients: 6, TxnsPerClient: 50, Seed: 7,
			Mix: []sim.TxnKind{{Name: "t", Weight: 1, Class: workload.ClassTeller, Fn: transfer}},
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Sum deltas of transactions that actually committed, per the
		// recorder (attempts that aborted after storing are excluded).
		g := pair.rec.Build()
		committed := map[cc.TxnID]bool{}
		for _, n := range g.Nodes {
			committed[n] = true
		}
		var want int64
		applied.Range(func(k, v any) bool {
			if committed[k.(cc.TxnID)] {
				want += v.(int64)
			}
			return true
		})
		var got int64
		for attempt := 0; ; attempt++ {
			tx, err := pair.eng.Begin(workload.ClassTeller)
			if err != nil {
				t.Fatal(err)
			}
			s, err := bank.AuditSum(tx)
			if err == nil {
				if err := tx.Commit(); err == nil {
					got = s
					break
				}
				continue
			}
			_ = tx.Abort()
			if !cc.IsAbort(err) || attempt > 100 {
				t.Fatalf("%s: audit: %v", name, err)
			}
		}
		if got != want {
			t.Errorf("%s: final sum %d, want %d (res=%+v)", name, got, want, res.Stats)
		}
		if !g.Serializable() {
			t.Errorf("%s: schedule not serializable:\n%s", name, g.ExplainCycle())
		}
		_ = pair.eng.Close()
	}
}

// TestCrossEngineInventorySerializable: every engine runs the full
// inventory mix and produces a serializable schedule.
func TestCrossEngineInventorySerializable(t *testing.T) {
	for name, mk := range map[string]bool{"HDD": true, "SDD-1": true, "MV2PL": true, "2PL": true, "TO": true, "MVTO": true} {
		_ = mk
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			inv, err := workload.NewInventory(workload.InventoryConfig{Items: 24, WithAudit: true, ReorderPoint: 10})
			if err != nil {
				t.Fatal(err)
			}
			pair := engineSet(t, inv.Partition())[name]
			defer pair.eng.Close()
			mix := []sim.TxnKind{
				{Name: "t1", Weight: 6, Class: workload.ClassEventEntry, Fn: inv.EventEntry},
				{Name: "t2", Weight: 3, Class: workload.ClassInventory, Fn: inv.PostInventory},
				{Name: "t3", Weight: 2, Class: workload.ClassReorder, Fn: inv.ReorderCheck},
				{Name: "prof", Weight: 1, Class: workload.ClassProfiles, Fn: inv.BuildProfile},
				{Name: "audit", Weight: 1, Class: workload.ClassAudit, Fn: inv.AuditEvents},
				{Name: "report", Weight: 2, ReadOnly: true, Fn: inv.Report},
			}
			if _, err := sim.Run(sim.Config{Engine: pair.eng, Clients: 6, TxnsPerClient: 60, Seed: 3, Mix: mix}); err != nil {
				t.Fatal(err)
			}
			g := pair.rec.Build()
			if !g.Serializable() {
				t.Fatalf("not serializable:\n%s", g.ExplainCycle())
			}
			if pair.rec.NumCommitted() < 360 {
				t.Fatalf("committed %d, vacuous", pair.rec.NumCommitted())
			}
		})
	}
}

// TestSoak runs the full inventory mix against a durable HDD engine for
// several seconds with GC and snapshots interleaved, then verifies
// application-level conservation and serializability. Skipped under
// -short.
func TestSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	inv, err := workload.NewInventory(workload.InventoryConfig{Items: 12, WithAudit: true, ReorderPoint: 15, ScanWindow: 4096})
	if err != nil {
		t.Fatal(err)
	}
	rec := sched.NewRecorder()
	eng, err := core.NewEngine(core.Config{
		Partition: inv.Partition(), Recorder: rec,
		WallInterval: 128, GCEveryCommits: 200,
		DataDir: t.TempDir(), SnapshotBytes: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	var wg sync.WaitGroup
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(c) * 11))
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
					ro, _ := eng.BeginReadOnly()
					_ = inv.Report(ro, r)
					_ = ro.Commit()
				}
			}
		}(c)
	}
	// Periodic operational interference: snapshots.
	opsDone := make(chan struct{})
	go func() {
		defer close(opsDone)
		for i := 0; i < 5; i++ {
			if err := eng.Snapshot(); err != nil {
				t.Errorf("snapshot: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-opsDone

	// Drain postings so the books balance, then verify conservation.
	r := rand.New(rand.NewSource(999))
	for item := 0; item < 12; item++ {
		item := item
		for pass := 0; pass < 6; pass++ {
			runRetry(t, eng, workload.ClassInventory, func(tx cc.Txn, _ *rand.Rand) error {
				return inv.PostInventoryItem(tx, item)
			}, r)
		}
	}
	ro, err := eng.BeginReadOnlyOnPath(workload.ClassInventory)
	if err != nil {
		t.Fatal(err)
	}
	for item := 0; item < 12; item++ {
		ctr, _ := ro.Read(workload.EventCounterKey(item))
		n := workload.GetInt64(ctr)
		var want int64
		for seq := int64(1); seq <= n; seq++ {
			ev, err := ro.Read(workload.EventKey(item, seq))
			if err != nil || ev == nil {
				t.Fatalf("item %d event %d missing", item, seq)
			}
			want += workload.GetInt64(ev)
		}
		lv, _ := ro.Read(workload.LevelKey(item))
		if workload.GetInt64(lv) != want {
			t.Fatalf("item %d: level %d, want %d", item, workload.GetInt64(lv), want)
		}
	}
	_ = ro.Commit()

	if g := rec.Build(); !g.Serializable() {
		t.Fatalf("soak schedule not serializable:\n%s", g.ExplainCycle())
	}
	if eng.GCRuns() == 0 {
		t.Fatal("GC never ran during soak")
	}
}

func runRetry(t *testing.T, eng cc.Engine, class schema.ClassID, fn func(cc.Txn, *rand.Rand) error, r *rand.Rand) {
	t.Helper()
	for attempt := 0; attempt < 200; attempt++ {
		tx, err := eng.Begin(class)
		if err != nil {
			panic(err)
		}
		if err := fn(tx, r); err != nil {
			_ = tx.Abort()
			if cc.IsAbort(err) {
				continue
			}
			panic(fmt.Sprintf("txn body: %v", err))
		}
		if err := tx.Commit(); err != nil {
			if cc.IsAbort(err) {
				continue
			}
			panic(err)
		}
		return
	}
	panic("never committed")
}
