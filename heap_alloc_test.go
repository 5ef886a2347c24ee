package hdd

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

// fragmentationPerGranule bounds the heap's fragmentation, HeapInuse −
// HeapAlloc after a GC, per live granule once the embedded benchmark's
// shape has run: 75 % update transactions (a Protocol A read one segment
// up, then a Protocol B read-modify-write of a 64-byte value) and 25 %
// Protocol C transactions of two reads, uniform over 4 096 keys in each of
// three chained segments. Fragmentation is what the benchmark's mem_mb
// measures beyond the live heap: spans that long-lived store objects hold
// half empty because short-lived objects of their size class were freed
// around them. Read copies made one by one share the 64 B class with the
// store's values; carved from a 256 B chunk they do not
// (results/issue42/README.md has the measured ranges).
const fragmentationPerGranule = 142

// TestFragmentationPerGranule pins the fragmentation that carving Read
// copies from a per-transaction chunk removes. One round's figure moves
// with when the collector happens to run, so the test takes the median of
// three rounds, each on a fresh engine.
func TestFragmentationPerGranule(t *testing.T) {
	if raceEnabled {
		t.Skip("heap layout is not meaningful under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var rounds []float64
	for seed := int64(1); seed <= 3; seed++ {
		rounds = append(rounds, embeddedFragmentation(t, seed))
	}
	t.Logf("B of fragmentation per granule, by round: %.1f", rounds)
	sort.Float64s(rounds)
	if med := rounds[1]; med > fragmentationPerGranule {
		t.Errorf("median %.1f B of fragmentation per granule, budget %d B", med, fragmentationPerGranule)
	}
}

// embeddedFragmentation runs the embedded benchmark's shape on a fresh
// engine and returns HeapInuse − HeapAlloc per granule after a GC.
func embeddedFragmentation(t *testing.T, seed int64) float64 {
	const segments, keys, txns = 3, 4096, 400_000
	part, err := NewPartition([]string{"seg0", "seg1", "seg2"}, []ClassSpec{
		{Name: "class0", Writes: 0},
		{Name: "class1", Writes: 1, Reads: []SegmentID{0}},
		{Name: "class2", Writes: 2, Reads: []SegmentID{0, 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(Config{Partition: part, WallInterval: 256, GCEveryCommits: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	val := make([]byte, 64)
	run := func(class ClassID, fn func(Txn) error) {
		if err := Run(e, class, fn, RetryPolicy{}); err != nil {
			t.Fatal(err)
		}
	}
	for s := 0; s < segments; s++ {
		run(ClassID(s), func(tx Txn) error {
			for k := uint64(0); k < keys; k++ {
				if err := tx.Write(GranuleID{Segment: SegmentID(s), Key: k}, val); err != nil {
					return err
				}
			}
			return nil
		})
	}
	e.Walls().Force()

	rng := rand.New(rand.NewSource(seed))
	granule := func(s SegmentID) GranuleID { return GranuleID{Segment: s, Key: uint64(rng.Intn(keys))} }
	for i := 0; i < txns; i++ {
		if rng.Intn(4) == 0 {
			a, b := granule(SegmentID(rng.Intn(segments))), granule(SegmentID(rng.Intn(segments)))
			run(NoClass, func(tx Txn) error {
				if _, err := tx.Read(a); err != nil {
					return err
				}
				_, err := tx.Read(b)
				return err
			})
			continue
		}
		class := ClassID(rng.Intn(segments))
		up, own := granule(SegmentID(class-1)), granule(SegmentID(class))
		run(class, func(tx Txn) error {
			if class > 0 {
				if _, err := tx.Read(up); err != nil {
					return err
				}
			}
			v, err := tx.Read(own)
			if err != nil {
				return err
			}
			val[0] = v[0] + 1
			return tx.Write(own, val)
		})
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse-ms.HeapAlloc) / (segments * keys)
}
