package sim

import (
	"testing"
	"time"

	"hdd/internal/core"
	"hdd/internal/fault"
	"hdd/internal/workload"
)

// TestRunSurvivesFaults is the tentpole end-to-end check: a workload where
// clients randomly crash mid-transaction and abandon transactions at commit
// still completes its full quota — because the engine's deadline/reaper
// layer collects every abandoned transaction instead of letting it freeze
// walls and garbage collection forever.
func TestRunSurvivesFaults(t *testing.T) {
	b, err := workload.NewBanking(8)
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEngine(core.Config{
		Partition:  b.Partition(),
		TxnTimeout: 15 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	res, err := Run(Config{
		Engine: fault.Wrap(e, fault.Config{
			Seed:        11,
			CrashProb:   0.05,
			AbandonProb: 0.05,
		}),
		Clients:       4,
		TxnsPerClient: 50,
		Seed:          3,
		OpDelay:       200 * time.Microsecond,
		Mix: []TxnKind{
			{Name: "transfer", Weight: 1, Class: workload.ClassTeller, Fn: b.Transfer},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != 200 {
		t.Fatalf("Committed = %d, want the full quota despite faults", res.Committed)
	}
	if res.Retries == 0 {
		t.Fatal("no retries recorded — the fault probabilities injected nothing")
	}

	// Every abandoned transaction must eventually be collected; the run's
	// own transactions are all resolved, so only abandoned ones remain.
	deadline := time.Now().Add(5 * time.Second)
	for e.ActiveTxns() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d transactions still active long after the run", e.ActiveTxns())
		}
		time.Sleep(time.Millisecond)
	}
	if got := e.Stats().ReapedTxns; got == 0 {
		t.Fatal("ReapedTxns = 0 — abandoned transactions were never reaped")
	}
}
