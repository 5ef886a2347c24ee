// Inventory: the paper's §1.2.1 retail application end to end. Type-1
// transactions record sales and arrivals; type-2 transactions fold them
// into per-item inventory levels; type-3 transactions decide reorders —
// all concurrently, over the validated hierarchical decomposition, with a
// serializability self-check at the end.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sync"

	"hdd"
	"hdd/internal/cc"
	"hdd/internal/core"
	"hdd/internal/workload"
)

func main() {
	inv, err := workload.NewInventory(workload.InventoryConfig{
		Items:        16,
		ReorderPoint: 10,
		ScanWindow:   256,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(inv.Partition())

	rec := hdd.NewRecorder()
	eng, err := core.NewEngine(core.Config{Partition: inv.Partition(), Recorder: rec, WallInterval: 200})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	// Concurrent clients: 4 cashiers (type 1), 2 inventory posters
	// (type 2), 1 reorder clerk (type 3), 1 profile builder.
	var wg sync.WaitGroup
	client := func(n int, class hdd.ClassID, fn func(cc.Txn, *rand.Rand) error, seed int64) {
		defer wg.Done()
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			if err := hdd.Run(eng, class, func(t hdd.Txn) error { return fn(t, r) }, hdd.RetryPolicy{}); err != nil {
				log.Fatal(err)
			}
		}
	}
	wg.Add(8)
	for c := 0; c < 4; c++ {
		go client(150, workload.ClassEventEntry, inv.EventEntry, int64(c))
	}
	go client(80, workload.ClassInventory, inv.PostInventory, 100)
	go client(80, workload.ClassInventory, inv.PostInventory, 101)
	go client(60, workload.ClassReorder, inv.ReorderCheck, 200)
	go client(40, workload.ClassProfiles, inv.BuildProfile, 300)
	wg.Wait()

	// Drain: fold every remaining event so the books balance.
	r := rand.New(rand.NewSource(999))
	for item := 0; item < 16; item++ {
		for pass := 0; pass < 8; pass++ {
			tx, err := eng.Begin(workload.ClassInventory)
			if err != nil {
				log.Fatal(err)
			}
			if err := inv.PostInventory(tx, rand.New(rand.NewSource(int64(item)))); err != nil {
				_ = tx.Abort()
				continue
			}
			_ = tx.Commit()
		}
	}
	_ = r

	// Audit with a Figure 8 on-path read-only transaction: events and
	// inventory lie on one critical path, so it runs under Protocol A
	// semantics — fresh, non-blocking, trace-free.
	ro, err := eng.BeginReadOnlyOnPath(workload.ClassInventory)
	if err != nil {
		log.Fatal(err)
	}
	var totalLevel, totalEvents int64
	for item := 0; item < 16; item++ {
		lv, err := ro.Read(workload.LevelKey(item))
		if err != nil {
			log.Fatal(err)
		}
		totalLevel += workload.GetInt64(lv)
		ctr, err := ro.Read(workload.EventCounterKey(item))
		if err != nil {
			log.Fatal(err)
		}
		totalEvents += workload.GetInt64(ctr)
	}
	if err := ro.Commit(); err != nil {
		log.Fatal(err)
	}

	st := eng.Stats()
	fmt.Printf("\ncommitted %d transactions (%d aborted attempts retried)\n", st.Commits, st.Aborts)
	fmt.Printf("recorded %d events across 16 items; net inventory level %d\n", totalEvents, totalLevel)
	fmt.Printf("read registrations: %d (Protocol B only — every cross-class and read-only read was free)\n",
		st.ReadRegistrations)

	// Serializability self-check over the recorded schedule (§2).
	g := rec.Build()
	order, ok := g.SerialOrder()
	if !ok {
		log.Fatalf("schedule not serializable!\n%s", g.ExplainCycle())
	}
	fmt.Printf("schedule of %d committed transactions verified serializable (equivalent serial order found, first 5: %v...)\n",
		rec.NumCommitted(), order[:min(5, len(order))])
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
