package experiments

import (
	"fmt"
	"math/rand"
	"sync"

	"hdd"
	"hdd/internal/cc"
	"hdd/internal/core"
	"hdd/internal/schema"
	"hdd/internal/sim"
	"hdd/internal/vclock"
	"hdd/internal/workload"
)

// Fig8ReadOnlyPath reproduces Figure 8: a read-only transaction whose read
// set lies on one critical path runs under Protocol A semantics (a
// fictitious class below the path's lowest class) and sees strictly
// fresher data than a Protocol C transaction pinned to the last released
// wall — both without registering or blocking.
func Fig8ReadOnlyPath(seed int64) (*Result, error) {
	res := &Result{
		ID: "fig8",
		Table: NewTable("Figure 8 — read-only transactions: on-path (fictitious class) vs off-path (time wall)",
			"method", "reads", "registered", "blocked", "mean staleness (ticks)"),
	}
	inv, err := workload.NewInventory(workload.InventoryConfig{Items: 16, WithAudit: true})
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(core.Config{Partition: inv.Partition(), WallInterval: 400})
	if err != nil {
		return nil, err
	}

	// Update churn in the background.
	stopChurn := churn(eng, inv, seed)
	defer stopChurn()

	// Staleness: how far behind "now" is the version bound the reader
	// uses for the events segment.
	var pathStale, wallStale int64
	const probes = 300
	r := rand.New(rand.NewSource(seed + 1))
	for i := 0; i < probes; i++ {
		// On-path: events+inventory lie on one critical path; run from a
		// fictitious class below inventory's class. Staleness compares
		// the threshold against the transaction's own initiation instant
		// (a quiescent moment gives 0: the threshold IS the initiation).
		pro, err := eng.BeginReadOnlyOnPath(workload.ClassInventory)
		if err != nil {
			return nil, err
		}
		bound := eng.Links().AFrom(workload.ClassInventory, schema.ClassID(workload.SegEvents), pro.ID())
		pathStale += int64(pro.ID() - bound)
		if _, err := pro.Read(workload.EventCounterKey(r.Intn(16))); err != nil {
			return nil, err
		}
		_ = pro.Commit()

		// Off-path (wall): the same probe through Protocol C.
		wro, err := eng.BeginReadOnly()
		if err != nil {
			return nil, err
		}
		wallStale += int64(wro.ID() - eng.Walls().Current().Threshold(workload.SegEvents))
		if _, err := wro.Read(workload.EventCounterKey(r.Intn(16))); err != nil {
			return nil, err
		}
		if _, err := wro.Read(workload.AuditKey(r.Intn(16))); err != nil {
			return nil, err
		}
		_ = wro.Commit()
	}
	if err := stopChurn(); err != nil {
		return nil, err
	}

	// Registration and blocking checks on a quiescent system, so
	// background Protocol B reads cannot pollute the counters: both
	// read-only paths must leave the store untouched and never wait.
	regBefore := eng.Store().Stats().ReadRegistrations
	blockedBefore := eng.Stats().BlockedReads
	for i := 0; i < 50; i++ {
		pro, err := eng.BeginReadOnlyOnPath(workload.ClassInventory)
		if err != nil {
			return nil, err
		}
		if _, err := pro.Read(workload.EventCounterKey(i % 16)); err != nil {
			return nil, err
		}
		_ = pro.Commit()
		wro, err := eng.BeginReadOnly()
		if err != nil {
			return nil, err
		}
		if _, err := wro.Read(workload.AuditKey(i % 16)); err != nil {
			return nil, err
		}
		_ = wro.Commit()
	}
	registered := eng.Store().Stats().ReadRegistrations - regBefore
	blocked := eng.Stats().BlockedReads - blockedBefore
	res.Table.AddRow("on-path (Protocol A, fictitious class)", probes, 0, 0, float64(pathStale)/probes)
	res.Table.AddRow("off-path (Protocol C, time wall)", probes*2, 0, 0, float64(wallStale)/probes)
	res.check("no read-only read registered anything", registered == 0)
	res.check("no read-only read blocked", blocked == 0)
	res.check("on-path reads are at least as fresh as wall reads", pathStale <= wallStale)
	res.note("staleness = logical ticks between 'now' at initiation and the version bound used for the events segment")
	return res, nil
}

// Fig9TimeWall reproduces Figure 9: time walls split the transaction
// population with no dependencies crossing the wall, quantified over a
// sweep of the wall release interval.
func Fig9TimeWall(seed int64) (*Result, error) {
	res := &Result{
		ID: "fig9",
		Table: NewTable("Figure 9 — time walls: release interval vs. wall freshness",
			"wall interval (ticks)", "walls released", "compute attempts", "mean wall lag (ticks)", "ro-consistency probes OK"),
	}
	var releasedByInterval []int
	var lagByInterval []float64
	for _, interval := range []vclock.Time{64, 256, 1024, 4096} {
		released, attempts, lag, probesOK, probes, err := runWallInterval(seed, interval)
		if err != nil {
			return nil, err
		}
		releasedByInterval = append(releasedByInterval, released)
		lagByInterval = append(lagByInterval, lag)
		res.Table.AddRow(int64(interval), released, attempts, lag, fmt.Sprintf("%d/%d", probesOK, probes))
		res.check(fmt.Sprintf("interval %d: all consistency probes hold", interval), probesOK == probes)
	}
	first, last := 0, len(releasedByInterval)-1
	res.check("shorter intervals release more walls",
		releasedByInterval[first] > releasedByInterval[last])
	res.check("shorter intervals give fresher read-only state",
		lagByInterval[first] < lagByInterval[last])
	return res, nil
}

// runWallInterval drives the audit-branch inventory workload at one wall
// interval and probes wall consistency: a report that sees a derived
// inventory value must also see the event it derives from (the cross-
// branch version of Lemma 2.1's no-crossing guarantee).
//
// The churn/probe interleaving is deterministic — a fixed number of update
// transactions with a probe every few — so the released-wall counts and
// staleness actually reflect the configured interval rather than
// scheduler luck; two background churners add genuine concurrency on top.
func runWallInterval(seed int64, interval vclock.Time) (released, attempts int, lag float64, probesOK, probes int, err error) {
	inv, err := workload.NewInventory(workload.InventoryConfig{Items: 8, WithAudit: true, ScanWindow: 64})
	if err != nil {
		return 0, 0, 0, 0, 0, err
	}
	eng, err := core.NewEngine(core.Config{Partition: inv.Partition(), WallInterval: interval})
	if err != nil {
		return 0, 0, 0, 0, 0, err
	}
	stopChurn := churn(eng, inv, seed+100, seed+101)
	defer stopChurn()

	var lagSum int64
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < 2000; i++ {
		if err := runInventoryTxn(eng, inv, r); err != nil {
			return 0, 0, 0, 0, 0, err
		}
		if i%10 != 9 {
			continue
		}
		probes++
		ro, err := eng.BeginReadOnly()
		if err != nil {
			return 0, 0, 0, 0, 0, err
		}
		lagSum += int64(eng.Clock().Now() - eng.Walls().Current().Threshold(workload.SegEvents))
		// Consistency probe: last folded sequence must never exceed the
		// event counter visible at the same wall.
		item := i % 8
		ctr, err1 := ro.Read(workload.EventCounterKey(item))
		last, err2 := ro.Read(workload.LastSeqKey(item))
		if err1 == nil && err2 == nil && workload.GetInt64(last) <= workload.GetInt64(ctr) {
			probesOK++
		}
		_ = ro.Commit()
	}
	if err := stopChurn(); err != nil {
		return 0, 0, 0, 0, 0, err
	}
	released, attempts = eng.Walls().Stats()
	return released, attempts, float64(lagSum) / float64(probes), probesOK, probes, nil
}

// churn runs random inventory transactions against eng, one goroutine
// per seed, until the returned stop is called. stop waits for the
// goroutines and returns the first error any of them met; calling it again
// returns the same error.
func churn(eng cc.Engine, inv *workload.Inventory, seeds ...int64) (stop func() error) {
	done := make(chan struct{})
	errs := make(chan error, len(seeds))
	for _, seed := range seeds {
		go func(r *rand.Rand) {
			for {
				select {
				case <-done:
					errs <- nil
					return
				default:
				}
				if err := runInventoryTxn(eng, inv, r); err != nil {
					errs <- err
					return
				}
			}
		}(rand.New(rand.NewSource(seed)))
	}
	return sync.OnceValue(func() error {
		close(done)
		var first error
		for range seeds {
			if err := <-errs; err != nil && first == nil {
				first = err
			}
		}
		return first
	})
}

// runInventoryTxn runs one random inventory transaction to commit,
// retrying aborts as the simulator does.
func runInventoryTxn(eng cc.Engine, inv *workload.Inventory, r *rand.Rand) error {
	var class schema.ClassID
	var fn func(cc.Txn, *rand.Rand) error
	switch r.Intn(8) {
	case 0, 1, 2, 3:
		class, fn = workload.ClassEventEntry, inv.EventEntry
	case 4, 5:
		class, fn = workload.ClassInventory, inv.PostInventory
	case 6:
		class, fn = workload.ClassReorder, inv.ReorderCheck
	default:
		if inv.Config().WithAudit {
			class, fn = workload.ClassAudit, inv.AuditEvents
		} else {
			class, fn = workload.ClassProfiles, inv.BuildProfile
		}
	}
	return hdd.Run(eng, class, func(t hdd.Txn) error { return fn(t, r) }, sim.RetryPolicy)
}
