// Reporting: ad-hoc read-only analytics under Protocol C. A stream of
// update transactions churns a branching hierarchy (so reports span
// segments on *different* critical paths) while reporting clients read
// consistent snapshots below released time walls — never waiting, never
// leaving a trace, and always seeing a state no dependency crosses
// (Theorem 2).
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sync"
	"sync/atomic"

	"hdd"
	"hdd/internal/cc"
	"hdd/internal/core"
	"hdd/internal/workload"
)

func main() {
	// The audit variant adds a branch to the inventory chain: reports
	// that touch both the inventory level (chain branch) and the audit
	// summary (side branch) are off every critical path and need walls.
	inv, err := workload.NewInventory(workload.InventoryConfig{Items: 32, WithAudit: true})
	if err != nil {
		log.Fatal(err)
	}
	eng, err := core.NewEngine(core.Config{Partition: inv.Partition(), WallInterval: 300, GCEveryCommits: 128})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	var stop atomic.Bool
	var updates atomic.Int64
	var wg sync.WaitGroup

	// Update churn: events, postings, audits.
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(c)))
			for !stop.Load() {
				var class hdd.ClassID
				var fn func(cc.Txn, *rand.Rand) error
				switch r.Intn(4) {
				case 0, 1:
					class, fn = workload.ClassEventEntry, inv.EventEntry
				case 2:
					class, fn = workload.ClassInventory, inv.PostInventory
				default:
					class, fn = workload.ClassAudit, inv.AuditEvents
				}
				if err := hdd.Run(eng, class, func(t hdd.Txn) error { return fn(t, r) }, hdd.RetryPolicy{}); err != nil {
					log.Fatal(err)
				}
				updates.Add(1)
			}
		}(c)
	}

	// Reporting clients: each report reads items' levels and audit
	// summaries — a cross-branch, wall-consistent view.
	const reports = 400
	var inconsistencies int
	r := rand.New(rand.NewSource(77))
	for i := 0; i < reports; i++ {
		ro, err := eng.BeginReadOnly()
		if err != nil {
			log.Fatal(err)
		}
		item := r.Intn(32)
		last, err1 := ro.Read(workload.LastSeqKey(item))
		ctr, err2 := ro.Read(workload.EventCounterKey(item))
		_, err3 := ro.Read(workload.AuditKey(item))
		if err1 != nil || err2 != nil || err3 != nil {
			log.Fatal("report read failed")
		}
		// Consistency probe: the folded sequence a report sees can never
		// exceed the event counter it sees — the wall admits the events
		// any visible derivation depended on.
		if workload.GetInt64(last) > workload.GetInt64(ctr) {
			inconsistencies++
		}
		if err := ro.Commit(); err != nil {
			log.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()

	released, attempts := eng.Walls().Stats()
	st := eng.Stats()
	fmt.Printf("ran %d reports against %d concurrent updates\n", reports, updates.Load())
	fmt.Printf("time walls released: %d (%d computability attempts)\n", released, attempts)
	fmt.Printf("wall-consistency violations: %d (Theorem 2 says 0)\n", inconsistencies)
	fmt.Printf("read registrations: %d — none attributable to the %d report transactions\n",
		st.ReadRegistrations, reports)
	if inconsistencies > 0 {
		log.Fatal("consistency violated")
	}
}
