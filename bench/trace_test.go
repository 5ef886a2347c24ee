package main

import (
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"hdd"
	"hdd/client"
	"hdd/internal/cc"
	"hdd/internal/enginereg"
	"hdd/internal/schema"
	"hdd/internal/server"
	"hdd/internal/vfs"
)

// The engine decorator must be invisible to capability detection: the
// server behind it has to feature-detect exactly what it would without
// it, for engines that back every capability, some, and none.
func TestTracedEnginePreservesCapabilities(t *testing.T) {
	part, err := enginereg.ChainPartition(classes)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, engine, dataDir string
	}{
		{"HDD memory-only", "HDD", ""},
		{"HDD durable", "HDD", t.TempDir()},
		{"MVTO baseline", "MVTO", ""},
	} {
		inner, err := enginereg.Build(tc.engine, enginereg.Options{Partition: part, DataDir: tc.dataDir})
		if err != nil {
			t.Fatal(err)
		}
		wrapped := &tracedEngine{inner: inner, tr: newTestTracer(), part: part}
		if got, want := cc.CapabilitiesOf(wrapped), cc.CapabilitiesOf(inner); got != want {
			t.Errorf("%s: wrapped capabilities %v, inner %v", tc.name, got, want)
		}
		if got, want := server.New(wrapped, server.Options{}).Capabilities(), cc.CapabilitiesOf(inner); got != want {
			t.Errorf("%s: server sees %v through the decorator, want %v", tc.name, got, want)
		}
		_, innerFA := cc.AsForceAborter(inner)
		if _, ok := cc.AsForceAborter(wrapped); ok != innerFA {
			t.Errorf("%s: AsForceAborter through the decorator = %v, inner %v", tc.name, ok, innerFA)
		}
		inner.Close()
	}
}

func newTestTracer() *tracer { return newTracer(1024) }

// countingEngine counts which read path the server takes.
type countingEngine struct {
	noopEngine
	shared, copied atomic.Int64
}

type countingTxn struct {
	noopTxn
	e *countingEngine
}

func (e *countingEngine) Begin(c schema.ClassID) (cc.Txn, error) {
	t, _ := e.noopEngine.Begin(c)
	return &countingTxn{noopTxn: *t.(*noopTxn), e: e}, nil
}

func (t *countingTxn) Read(g schema.GranuleID) ([]byte, error) {
	t.e.copied.Add(1)
	return t.noopTxn.Read(g)
}

func (t *countingTxn) ReadShared(g schema.GranuleID) ([]byte, error) {
	t.e.shared.Add(1)
	return t.noopTxn.ReadShared(g)
}

// Served through a real server and client, reads must still reach the
// engine's zero-copy ReadShared — never the copying Read — and every
// engine call must leave a core.call span linked to the client.op that
// caused it.
func TestTracedEngineKeepsZeroCopyReadPath(t *testing.T) {
	part, err := enginereg.ChainPartition(classes)
	if err != nil {
		t.Fatal(err)
	}
	inner := &countingEngine{}
	tr := newTestTracer()
	srv := server.New(&tracedEngine{inner: inner, tr: tr, part: part}, server.Options{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()
	defer func() {
		srv.Close()
		<-done
	}()
	c, err := client.Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	beg := &tracedBeginner{inner: c, tr: tr, kind: spanClientOp, root: 42, sample: true}
	for _, on := range []bool{false, true} {
		tr.on.Store(on)
		txn, err := beg.Begin(1)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range []hdd.GranuleID{{Segment: 0, Key: 1}, {Segment: 1, Key: 1}} {
			if v, err := txn.Read(g); err != nil || len(v) != valueSize {
				t.Fatalf("read %v: %d bytes, %v", g, len(v), err)
			}
		}
		if err := txn.Write(hdd.GranuleID{Segment: 1, Key: 1}, []byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if s, c := inner.shared.Load(), inner.copied.Load(); s != 4 || c != 0 {
		t.Errorf("engine saw %d ReadShared and %d Read calls, want 4 and 0", s, c)
	}

	// Only the second transaction ran with the tracer on. The client-side
	// spans were recorded for both (tracedBeginner is only handed out
	// while tracing); the engine-side ones for the second.
	spans := tr.recorded()
	ts := analyse(spans, false)
	var core, linked int
	protos := map[uint8]int{}
	for i, s := range spans {
		if s.kind != spanCoreCall {
			continue
		}
		core++
		if s.op == opRead {
			protos[s.proto]++
		}
		if p := ts.parent[i]; p >= 0 && spans[p].kind == spanClientOp && spans[p].op == s.op {
			linked++
		}
	}
	if core != 5 || linked != 5 {
		t.Errorf("%d core.call spans, %d linked to their client.op; want 5 and 5 (begin, 2 reads, write, commit)", core, linked)
	}
	if protos[protoA] != 1 || protos[protoB] != 1 {
		t.Errorf("read protocols %v, want one Protocol A and one Protocol B read", protos)
	}
	if ts.orphans != 0 {
		t.Errorf("%d engine calls without a client parent", ts.orphans)
	}
}

// The storage decorator must pass data through untouched and count what
// went to the WAL file apart from everything else.
func TestTimedFS(t *testing.T) {
	dir := t.TempDir()
	tr := newTestTracer()
	tr.on.Store(true)
	fs := &timedFS{FS: vfs.OS{}, tr: tr}
	write := func(name string, n int) {
		f, err := fs.OpenFile(filepath.Join(dir, name), os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(make([]byte, n)); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	write("wal.log", 100)
	write("snapshot.tmp", 1000)
	if err := fs.Rename(filepath.Join(dir, "snapshot.tmp"), filepath.Join(dir, "snapshot")); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(filepath.Join(dir, "snapshot")); err != nil || st.Size() != 1000 {
		t.Fatalf("snapshot after rename: %v, %v", st, err)
	}
	c := fs.counters()
	if c.walWrites != 1 || c.walWriteBytes != 100 || c.walSyncs != 1 || c.otherBytes != 1000 || c.walSyncNs <= 0 {
		t.Errorf("counters %+v", c)
	}
	if len(fs.syncs) != 1 {
		t.Errorf("%d WAL fsync durations recorded, want 1", len(fs.syncs))
	}
	kinds := map[spanKind]int{}
	for _, s := range tr.recorded() {
		kinds[s.kind]++
	}
	if kinds[spanVfsWrite] != 2 || kinds[spanVfsSync] != 2 || kinds[spanVfsRename] != 1 {
		t.Errorf("spans by kind: %v", kinds)
	}
}
