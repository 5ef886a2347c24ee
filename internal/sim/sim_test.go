package sim

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"hdd/internal/cc"
	"hdd/internal/core"
	"hdd/internal/schema"
	"hdd/internal/tso"
	"hdd/internal/twopl"
	"hdd/internal/workload"
)

func bankingEngine(t testing.TB) (*core.Engine, *workload.Banking) {
	t.Helper()
	b, err := workload.NewBanking(8)
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEngine(core.Config{Partition: b.Partition()})
	if err != nil {
		t.Fatal(err)
	}
	return e, b
}

func TestRunBasics(t *testing.T) {
	e, b := bankingEngine(t)
	res, err := Run(Config{
		Engine:        e,
		Clients:       4,
		TxnsPerClient: 25,
		Seed:          1,
		Mix: []TxnKind{
			{Name: "transfer", Weight: 1, Class: workload.ClassTeller, Fn: b.Transfer},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != 100 {
		t.Fatalf("Committed = %d", res.Committed)
	}
	if res.Stats.Commits != 100+res.Retries {
		// Each retry that later commits still counts one commit; aborted
		// attempts count as engine aborts, not commits.
		if res.Stats.Commits != 100 {
			t.Fatalf("engine commits = %d, committed = %d, retries = %d",
				res.Stats.Commits, res.Committed, res.Retries)
		}
	}
	if res.Throughput() <= 0 {
		t.Fatal("throughput not positive")
	}
}

func TestRunMixedKindsAndReadOnly(t *testing.T) {
	e, b := bankingEngine(t)
	var audits atomic.Int64
	res, err := Run(Config{
		Engine:        e,
		Clients:       3,
		TxnsPerClient: 20,
		Seed:          2,
		Mix: []TxnKind{
			{Name: "transfer", Weight: 3, Class: workload.ClassTeller, Fn: b.Transfer},
			{Name: "audit", Weight: 1, ReadOnly: true, Fn: func(tx cc.Txn, r *rand.Rand) error {
				if tx.Class() != schema.NoClass {
					t.Errorf("audit ran in class %d, want a read-only transaction", tx.Class())
				}
				audits.Add(1)
				_, err := b.AuditSum(tx)
				return err
			}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != 60 {
		t.Fatalf("Committed = %d", res.Committed)
	}
	if audits.Load() == 0 {
		t.Fatal("no audits ran; weights broken")
	}
}

func TestRunValidation(t *testing.T) {
	e, b := bankingEngine(t)
	if _, err := Run(Config{}); err == nil {
		t.Fatal("expected error for missing engine")
	}
	if _, err := Run(Config{Engine: e}); err == nil {
		t.Fatal("expected error for empty mix")
	}
	if _, err := Run(Config{Engine: e, Mix: []TxnKind{{Name: "x", Weight: 0, Fn: b.Transfer}}}); err == nil {
		t.Fatal("expected error for zero weight")
	}
	if _, err := Run(Config{Engine: e, Mix: []TxnKind{{Name: "x", Weight: 1}}}); err == nil {
		t.Fatal("expected error for nil Fn")
	}
}

// TestRunAcrossEngines: the same workload drives every engine type through
// the cc interface.
func TestRunAcrossEngines(t *testing.T) {
	b, err := workload.NewBanking(8)
	if err != nil {
		t.Fatal(err)
	}
	hddEng, err := core.NewEngine(core.Config{Partition: b.Partition()})
	if err != nil {
		t.Fatal(err)
	}
	engines := []cc.Engine{
		hddEng,
		twopl.NewEngine(twopl.Config{Variant: twopl.Strict}),
		twopl.NewEngine(twopl.Config{Variant: twopl.MultiVersion}),
		tso.NewBasic(tso.BasicConfig{}),
		tso.NewMVTO(tso.MVTOConfig{}),
	}
	for _, e := range engines {
		res, err := Run(Config{
			Engine:        e,
			Clients:       4,
			TxnsPerClient: 15,
			Seed:          3,
			Mix: []TxnKind{
				{Name: "transfer", Weight: 1, Class: schema.ClassID(0), Fn: b.Transfer},
			},
		})
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if res.Committed != 60 {
			t.Fatalf("%s: committed = %d", e.Name(), res.Committed)
		}
	}
}
