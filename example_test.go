package hdd_test

import (
	"fmt"
	"log"
	"strconv"
	"time"

	"hdd"
)

// Example demonstrates the full HDD lifecycle: declare a hierarchy, run an
// update transaction whose cross-class read is trace-free (Protocol A),
// and report with a read-only transaction below a time wall (Protocol C).
func Example() {
	// Class i writes segment i and reads the segments it lists. A
	// hierarchy that is not a transitive semi-tree is rejected here.
	part, err := hdd.NewPartition(
		[]string{"events", "summary"},
		[]hdd.ClassSpec{
			{Name: "record", Writes: 0},
			{Name: "summarize", Writes: 1, Reads: []hdd.SegmentID{0}},
		})
	if err != nil {
		log.Fatal(err)
	}
	eng, err := hdd.NewEngine(hdd.Config{Partition: part})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	ev := hdd.GranuleID{Segment: 0, Key: 7}
	sum := hdd.GranuleID{Segment: 1, Key: 7}

	t1, _ := eng.Begin(0)
	_ = t1.Write(ev, []byte("12 units arrived"))
	_ = t1.Commit()

	t2, _ := eng.Begin(1)
	v, _ := t2.Read(ev) // Protocol A: no lock, no read timestamp
	_ = t2.Write(sum, v)
	_ = t2.Commit()
	fmt.Printf("derived from %q\n", v)

	// Walls are released on a logical-tick interval; force one so the
	// report sees the commits above. A running system just waits.
	eng.Walls().Force()
	ro, _ := eng.BeginReadOnly()
	s, _ := ro.Read(sum) // Protocol C: below the released wall
	_ = ro.Commit()
	fmt.Printf("report sees %q\n", s)

	st := eng.Stats()
	fmt.Printf("%d commits, %d reads, %d read registrations\n",
		st.Commits, st.Reads, st.ReadRegistrations)
	// Output:
	// derived from "12 units arrived"
	// report sees "12 units arrived"
	// 3 commits, 2 reads, 0 read registrations
}

// ExampleRun wraps transaction bodies in the retry runner. Run begins a
// transaction, calls the body, commits, and retries aborts with capped,
// jittered exponential backoff. A body returns engine errors unmodified
// so Run can tell an abort from an application error. TxnTimeout gives
// every transaction a deadline; the reaper force-aborts one that passes
// it, so an abandoned transaction cannot freeze walls and GC.
func ExampleRun() {
	part, err := hdd.NewPartition(
		[]string{"events", "summary"},
		[]hdd.ClassSpec{
			{Name: "record", Writes: 0},
			{Name: "summarize", Writes: 1, Reads: []hdd.SegmentID{0}},
		})
	if err != nil {
		log.Fatal(err)
	}
	eng, err := hdd.NewEngine(hdd.Config{Partition: part, TxnTimeout: 5 * time.Second})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	const summarize hdd.ClassID = 1
	count := hdd.GranuleID{Segment: 1, Key: 0}
	for i := 0; i < 3; i++ {
		err := hdd.Run(eng, summarize, func(t hdd.Txn) error {
			v, err := t.Read(count) // Protocol B: own segment
			if err != nil {
				return err
			}
			n, _ := strconv.Atoi(string(v)) // an absent granule reads nil: 0
			return t.Write(count, []byte(strconv.Itoa(n+1)))
		}, hdd.RetryPolicy{}) // zero value: 10 attempts, 200µs…50ms backoff
		if err != nil {
			log.Fatal(err) // a *hdd.RetryError once the attempts run out
		}
	}

	// hdd.NoClass runs the body in a read-only (Protocol C) transaction.
	eng.Walls().Force()
	err = hdd.Run(eng, hdd.NoClass, func(t hdd.Txn) error {
		v, err := t.Read(count)
		fmt.Printf("count = %s\n", v)
		return err
	}, hdd.RetryPolicy{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("reaped:", eng.Stats().ReapedTxns)
	// Output:
	// count = 3
	// reaped: 0
}
