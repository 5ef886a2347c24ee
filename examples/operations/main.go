// Operations: the §7 operational features end to end — version garbage
// collection, then a snapshot and recovery from the data directory — after
// the inventory workload has run on a durable engine.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"sync"

	"hdd"
	"hdd/internal/cc"
	"hdd/internal/core"
	"hdd/internal/workload"
)

func main() {
	inv, err := workload.NewInventory(workload.InventoryConfig{Items: 16, WithAudit: true})
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "hdd-operations-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	eng, err := core.NewEngine(core.Config{
		Partition:      inv.Partition(),
		WallInterval:   200,
		GCEveryCommits: 64,
		DataDir:        dir,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Churn: 4 concurrent clients.
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < 400; i++ {
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
			}
		}(c)
	}
	wg.Wait()

	// 1. Garbage collection: the automatic cycles already ran; force one
	//    more and report.
	pruned := eng.ForceGC()
	fmt.Printf("GC: %d automatic cycles; %d versions retained, %d pruned by the final cycle\n",
		eng.GCRuns(), eng.Store().TotalVersions(), pruned)

	// 2. Snapshot into the data directory, close, reopen it, and verify
	//    the recovered engine serves the same inventory levels. Nothing is
	//    in flight, so a forced wall covers every commit.
	eng.Walls().Force()
	want := levelSum(eng)
	if err := eng.Snapshot(); err != nil {
		log.Fatal(err)
	}
	st := eng.Stats()
	if err := eng.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("snapshot taken, engine closed")

	restored, err := core.NewEngine(core.Config{Partition: inv.Partition(), DataDir: dir})
	if err != nil {
		log.Fatal(err)
	}
	defer restored.Close()
	got := levelSum(restored)
	if got != want {
		log.Fatalf("recovered levels sum to %d, want %d", got, want)
	}
	fmt.Printf("reopened engine serves the snapshotted levels: sum %d == %d ✓\n", got, want)

	fmt.Printf("totals: %d commits, %d aborted attempts, %d read registrations\n",
		st.Commits, st.Aborts, st.ReadRegistrations)
}

// levelSum reads every item's inventory level in one Protocol C
// transaction.
func levelSum(eng *core.Engine) int64 {
	ro, err := eng.BeginReadOnly()
	if err != nil {
		log.Fatal(err)
	}
	var sum int64
	for item := 0; item < 16; item++ {
		lv, err := ro.Read(workload.LevelKey(item))
		if err != nil {
			log.Fatal(err)
		}
		sum += workload.GetInt64(lv)
	}
	if err := ro.Commit(); err != nil {
		log.Fatal(err)
	}
	return sum
}
