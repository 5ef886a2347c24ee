package client_test

import (
	"fmt"
	"log"
	"net"
	"strconv"

	"hdd"
	"hdd/client"
	"hdd/internal/server"
)

// serve starts an HDD engine behind a loopback server, as cmd/hddserver
// does, and returns its address and a function that shuts it down (which
// also closes the engine).
func serve() (addr string, stop func()) {
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
	srv := server.New(eng, server.Options{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	return l.Addr().String(), func() {
		srv.Close()
		if err := <-done; err != nil {
			log.Fatal(err)
		}
	}
}

// ExampleDial runs the hdd.Run retry loop against a remote engine. The
// client satisfies hdd.Beginner, and a remote abort is still an abort
// (hdd.IsAbort), so the loop is the one used in process.
func ExampleDial() {
	addr, stop := serve()
	defer stop()

	c, err := client.Dial(addr)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	const summarize hdd.ClassID = 1
	count := hdd.GranuleID{Segment: 1, Key: 0}
	for i := 0; i < 3; i++ {
		err := hdd.Run(c, summarize, func(t hdd.Txn) error {
			v, err := t.Read(count)
			if err != nil {
				return err
			}
			n, _ := strconv.Atoi(string(v))
			return t.Write(count, []byte(strconv.Itoa(n+1)))
		}, hdd.RetryPolicy{})
		if err != nil {
			log.Fatal(err)
		}
	}
	info, _ := c.ServerInfo()
	fmt.Println("engine:", info.Engine)

	t, _ := c.Begin(summarize)
	v, _ := t.Read(count)
	_ = t.Commit()
	fmt.Printf("count = %s\n", v)
	// Output:
	// engine: HDD
	// count = 3
}

// ExampleTxn_Do sends many operations on one transaction in one frame:
// the server runs them in order and answers with one result each.
func ExampleTxn_Do() {
	addr, stop := serve()
	defer stop()

	c, err := client.Dial(addr)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	t, _ := c.Begin(0)
	tx := t.(*client.Txn)
	var b client.Batch
	for k := uint64(0); k < 4; k++ {
		b.Write(hdd.GranuleID{Segment: 0, Key: k}, []byte{'a' + byte(k)})
	}
	if _, err := tx.Do(&b); err != nil { // one round trip, four writes
		log.Fatal(err)
	}
	b.Reset()
	for k := uint64(0); k < 5; k++ {
		b.Read(hdd.GranuleID{Segment: 0, Key: k})
	}
	res, err := tx.Do(&b) // one round trip, five results
	if err != nil {
		log.Fatal(err)
	}
	_ = tx.Commit()
	for k, r := range res {
		fmt.Printf("key %d: found=%v %q\n", k, r.Found, r.Value)
	}
	// Output:
	// key 0: found=true "a"
	// key 1: found=true "b"
	// key 2: found=true "c"
	// key 3: found=true "d"
	// key 4: found=false ""
}
