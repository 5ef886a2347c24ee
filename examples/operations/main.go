// Operations: the §7 operational features end to end — version garbage
// collection, then checkpoint and recovery — after the inventory workload
// has run.
package main

import (
	"bytes"
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
	inv, err := workload.NewInventory(workload.InventoryConfig{Items: 16, WithAudit: true})
	if err != nil {
		log.Fatal(err)
	}
	eng, err := core.NewEngine(core.Config{
		Partition:      inv.Partition(),
		WallInterval:   200,
		GCEveryCommits: 64,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

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
				for attempt := 0; attempt < 100; attempt++ {
					tx, _ := eng.Begin(class)
					if err := fn(tx, r); err != nil {
						_ = tx.Abort()
						if hdd.IsAbort(err) {
							continue
						}
						log.Fatal(err)
					}
					if err := tx.Commit(); err == nil || !hdd.IsAbort(err) {
						break
					}
				}
			}
		}(c)
	}
	wg.Wait()

	// 1. Garbage collection: the automatic cycles already ran; force one
	//    more and report.
	before := eng.Store().TotalVersions()
	pruned := eng.ForceGC()
	fmt.Printf("GC: %d automatic cycles; %d versions retained, %d pruned by the final cycle\n",
		eng.GCRuns(), eng.Store().TotalVersions(), pruned)
	_ = before

	// 2. Checkpoint, then recover into a fresh engine and verify it serves
	//    the same inventory levels.
	var buf bytes.Buffer
	if err := eng.WriteCheckpoint(&buf); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpoint written: %d bytes\n", buf.Len())

	restored, err := core.NewEngineFromCheckpoint(core.Config{Partition: inv.Partition()}, &buf)
	if err != nil {
		log.Fatal(err)
	}
	defer restored.Close()
	// Nothing is in flight, so a forced wall covers every commit.
	eng.Walls().Force()
	want, got := levelSum(eng), levelSum(restored)
	if got != want {
		log.Fatalf("recovered levels sum to %d, want %d", got, want)
	}
	fmt.Printf("recovered engine serves the checkpointed levels: sum %d == %d ✓\n", got, want)

	st := eng.Stats()
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
