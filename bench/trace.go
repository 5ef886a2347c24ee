package main

// The traced run's span recorder and the decorators that feed it. Spans
// are recorded from the benchmark's own files, at the two seams the code
// already offers (cc.Engine between server and engine, vfs.FS under the
// durability layer) and around the public client/hdd calls the load
// generator makes; spans inside the program are a later issue. The
// hierarchy is
//
//	txn (one logical transaction, all its attempts)
//	  ⊃ client.op (one public Begin/Read/Write/Commit/Abort call)
//	    ⊃ core.call (the engine call it caused, seen by the decorator)
//	vfs.write / vfs.sync / vfs.rename (storage calls, on the flusher and
//	the snapshotter; parentless, attributed to commits by overlap)
//
// Spans live in one preallocated array filled through an atomic cursor —
// recording is wait-free and never allocates — and are linked to their
// parents, analysed and written out after the run.

import (
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"hdd"
	"hdd/internal/cc"
	"hdd/internal/schema"
	"hdd/internal/vfs"
)

type spanKind uint8

const (
	spanTxn spanKind = iota
	spanClientOp
	spanCoreCall
	spanVfsWrite
	spanVfsSync
	spanVfsRename
)

var spanKindNames = [...]string{"txn", "client.op", "core.call", "vfs.write", "vfs.sync", "vfs.rename"}

type opKind uint8

const (
	opBegin opKind = iota
	opRead
	opWrite
	opCommit
	opAbort
	numOps
)

var opNames = [numOps]string{"begin", "read", "write", "commit", "abort"}

// Read protocols, as the decorator classifies a read from the
// transaction's class and the granule's segment.
const (
	protoNone uint8 = iota
	protoA
	protoB
	protoC
)

// span is one recorded interval. Times are nanoseconds since the
// tracer's epoch.
type span struct {
	kind  spanKind
	op    opKind
	proto uint8
	// update marks a txn span of an update transaction; wal marks a vfs
	// span on the write-ahead log file (as opposed to a snapshot file).
	update, wal bool
	// root is the logical transaction (txn and client.op spans, and
	// core.call spans of the embedded workload); attempt is the
	// engine-issued transaction id that links a core.call to the
	// client.op that caused it across the socket.
	root    uint64
	attempt uint64
	start   int64
	end     int64
}

// maxSpans bounds the recorder: ~4 M spans (160 MB of address space,
// touched only as it fills) hold the densest traced run — read_pipelined
// records ~21 spans per transaction, ~2.4 M in its twelve traced
// seconds. Spans past the bound are counted as dropped, not recorded.
const maxSpans = 1 << 22

type tracer struct {
	on      atomic.Bool
	epoch   time.Time
	cursor  atomic.Int64
	spans   []span
	dropped atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) record(s span) {
	i := t.cursor.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return
	}
	t.spans[i] = s
}

func (t *tracer) recorded() []span {
	return t.spans[:min(t.cursor.Load(), int64(len(t.spans)))]
}

// ---- cc.Engine decorator ----

// tracedEngine sits between the server and the engine and records one
// core.call span per engine call while the tracer is on. It forwards
// every optional capability interface and reports the inner engine's
// capability set, so the server feature-detects exactly what it would
// without the decorator — including the zero-copy read path.
type tracedEngine struct {
	inner cc.Engine
	tr    *tracer
	part  *schema.Partition
}

var (
	_ cc.Engine                 = (*tracedEngine)(nil)
	_ cc.CapabilityReporter     = (*tracedEngine)(nil)
	_ cc.ForceAborter           = (*tracedEngine)(nil)
	_ cc.TimeoutBeginner        = (*tracedEngine)(nil)
	_ cc.AdHocBeginner          = (*tracedEngine)(nil)
	_ cc.ScopedReadOnlyBeginner = (*tracedEngine)(nil)
	_ cc.ActiveTxnCounter       = (*tracedEngine)(nil)
	_ cc.DurabilityIntrospector = (*tracedEngine)(nil)
	_ cc.Checkpointer           = (*tracedEngine)(nil)
)

func (e *tracedEngine) Name() string                { return e.inner.Name() }
func (e *tracedEngine) Stats() cc.Stats             { return e.inner.Stats() }
func (e *tracedEngine) Close() error                { return e.inner.Close() }
func (e *tracedEngine) Capabilities() cc.Capability { return cc.CapabilitiesOf(e.inner) }
func (e *tracedEngine) Begin(c schema.ClassID) (cc.Txn, error) {
	return e.begin(func() (cc.Txn, error) { return e.inner.Begin(c) })
}
func (e *tracedEngine) BeginReadOnly() (cc.Txn, error) { return e.begin(e.inner.BeginReadOnly) }

func (e *tracedEngine) begin(do func() (cc.Txn, error)) (cc.Txn, error) {
	on, start := e.tr.on.Load(), e.tr.now()
	t, err := do()
	if err != nil {
		return nil, err
	}
	if on {
		e.tr.record(span{kind: spanCoreCall, op: opBegin, attempt: uint64(t.ID()), start: start, end: e.tr.now()})
	}
	return e.wrap(t), nil
}

func (e *tracedEngine) wrap(t cc.Txn) *tracedTxn {
	w := &tracedTxn{inner: t, tr: e.tr, root: schema.SegmentID(-1)}
	w.shared, _ = t.(cc.SharedReader)
	if c := t.Class(); c != schema.NoClass {
		w.root = e.part.Class(c).Writes
	}
	return w
}

// The capability methods answer ErrNotSupported when the inner engine
// lacks the interface; the server never calls them then, because
// Capabilities reports the inner set and the cc.As* helpers honour it.

func (e *tracedEngine) ForceAbort(id cc.TxnID) bool {
	a, ok := e.inner.(cc.ForceAborter)
	return ok && a.ForceAbort(id)
}

func (e *tracedEngine) BeginWithTimeout(c schema.ClassID, d time.Duration) (cc.Txn, error) {
	b, ok := e.inner.(cc.TimeoutBeginner)
	if !ok {
		return nil, cc.NotSupported(e.Name(), "BeginWithTimeout")
	}
	return e.begin(func() (cc.Txn, error) { return b.BeginWithTimeout(c, d) })
}

func (e *tracedEngine) BeginAdHocFor(w schema.SegmentID, reads ...schema.SegmentID) (cc.Txn, error) {
	b, ok := e.inner.(cc.AdHocBeginner)
	if !ok {
		return nil, cc.NotSupported(e.Name(), "BeginAdHocFor")
	}
	return e.begin(func() (cc.Txn, error) { return b.BeginAdHocFor(w, reads...) })
}

func (e *tracedEngine) BeginReadOnlyFor(segs ...schema.SegmentID) (cc.Txn, error) {
	b, ok := e.inner.(cc.ScopedReadOnlyBeginner)
	if !ok {
		return nil, cc.NotSupported(e.Name(), "BeginReadOnlyFor")
	}
	return e.begin(func() (cc.Txn, error) { return b.BeginReadOnlyFor(segs...) })
}

func (e *tracedEngine) ActiveTxns() int {
	if a, ok := e.inner.(cc.ActiveTxnCounter); ok {
		return a.ActiveTxns()
	}
	return 0
}

func (e *tracedEngine) DurabilityState() (cc.DurabilityState, bool) {
	if d, ok := e.inner.(cc.DurabilityIntrospector); ok {
		return d.DurabilityState()
	}
	return cc.DurabilityState{}, false
}

func (e *tracedEngine) Snapshot() error {
	if c, ok := e.inner.(cc.Checkpointer); ok {
		return c.Snapshot()
	}
	return cc.NotSupported(e.Name(), "Snapshot")
}

// tracedTxn times every call on one transaction. Like the transaction it
// wraps it is used by one goroutine at a time (the server's per-txn
// FIFO), apart from Abort racing in from session teardown, which touches
// no state of its own here.
type tracedTxn struct {
	inner  cc.Txn
	shared cc.SharedReader // nil when the inner txn has no zero-copy path
	tr     *tracer
	root   schema.SegmentID // the class's own segment; -1 when read-only
}

var _ cc.SharedReader = (*tracedTxn)(nil)

func (t *tracedTxn) ID() cc.TxnID          { return t.inner.ID() }
func (t *tracedTxn) Class() schema.ClassID { return t.inner.Class() }

func (t *tracedTxn) call(op opKind, proto uint8, start int64) {
	t.tr.record(span{kind: spanCoreCall, op: op, proto: proto, attempt: uint64(t.inner.ID()), start: start, end: t.tr.now()})
}

func (t *tracedTxn) proto(g schema.GranuleID) uint8 {
	switch {
	case t.root < 0:
		return protoC
	case g.Segment == t.root:
		return protoB
	}
	return protoA
}

func (t *tracedTxn) Read(g schema.GranuleID) ([]byte, error) {
	if !t.tr.on.Load() {
		return t.inner.Read(g)
	}
	start := t.tr.now()
	v, err := t.inner.Read(g)
	t.call(opRead, t.proto(g), start)
	return v, err
}

// ReadShared forwards the zero-copy read. An inner transaction without
// one is served by Read: a private copy is trivially a valid shared
// slice.
func (t *tracedTxn) ReadShared(g schema.GranuleID) ([]byte, error) {
	read := t.inner.Read
	if t.shared != nil {
		read = t.shared.ReadShared
	}
	if !t.tr.on.Load() {
		return read(g)
	}
	start := t.tr.now()
	v, err := read(g)
	t.call(opRead, t.proto(g), start)
	return v, err
}

func (t *tracedTxn) Write(g schema.GranuleID, v []byte) error {
	if !t.tr.on.Load() {
		return t.inner.Write(g, v)
	}
	start := t.tr.now()
	err := t.inner.Write(g, v)
	t.call(opWrite, protoNone, start)
	return err
}

func (t *tracedTxn) Commit() error {
	if !t.tr.on.Load() {
		return t.inner.Commit()
	}
	start := t.tr.now()
	err := t.inner.Commit()
	t.call(opCommit, protoNone, start)
	return err
}

func (t *tracedTxn) Abort() error {
	if !t.tr.on.Load() {
		return t.inner.Abort()
	}
	start := t.tr.now()
	err := t.inner.Abort()
	t.call(opAbort, protoNone, start)
	return err
}

// ---- load-generator side: spans around the public API calls ----

// tracedBeginner is what a logical client hands to hdd.RunCtx in the
// traced phase: it times the public Begin/Read/Write/Commit/Abort calls
// of the transaction the client is currently running. Over the network
// those are client.op spans; on the embedded workload the calls are the
// engine calls themselves, so they are recorded as core.call. One per
// logical client; not safe for concurrent use.
type tracedBeginner struct {
	inner hdd.Beginner
	tr    *tracer
	kind  spanKind
	// root is the logical transaction now running, set by the client
	// before each RunCtx; sample skips recording (embedded_mem traces one
	// transaction in embeddedSampleEvery).
	root   uint64
	sample bool
}

func (b *tracedBeginner) Begin(c hdd.ClassID) (hdd.Txn, error) {
	return b.begin(func() (hdd.Txn, error) { return b.inner.Begin(c) })
}

func (b *tracedBeginner) BeginReadOnly() (hdd.Txn, error) { return b.begin(b.inner.BeginReadOnly) }

func (b *tracedBeginner) begin(do func() (hdd.Txn, error)) (hdd.Txn, error) {
	if !b.sample {
		return do()
	}
	start := b.tr.now()
	t, err := do()
	if err != nil {
		return nil, err
	}
	pt := &publicTxn{Txn: t, b: b, attempt: uint64(t.ID())}
	pt.op(opBegin, start)
	return pt, nil
}

// publicTxn times one attempt's public calls.
type publicTxn struct {
	hdd.Txn
	b       *tracedBeginner
	attempt uint64
}

func (t *publicTxn) op(op opKind, start int64) {
	t.b.tr.record(span{kind: t.b.kind, op: op, root: t.b.root, attempt: t.attempt, start: start, end: t.b.tr.now()})
}

func (t *publicTxn) Read(g hdd.GranuleID) ([]byte, error) {
	start := t.b.tr.now()
	v, err := t.Txn.Read(g)
	s := span{kind: t.b.kind, op: opRead, root: t.b.root, attempt: t.attempt, start: start, end: t.b.tr.now()}
	if s.kind == spanCoreCall {
		// Embedded, this call is the engine's: classify it as the engine
		// decorator would (on the chain partition class i owns segment i).
		switch c := t.Txn.Class(); {
		case c == hdd.NoClass:
			s.proto = protoC
		case hdd.SegmentID(c) == g.Segment:
			s.proto = protoB
		default:
			s.proto = protoA
		}
	}
	t.b.tr.record(s)
	return v, err
}

func (t *publicTxn) Write(g hdd.GranuleID, v []byte) error {
	start := t.b.tr.now()
	err := t.Txn.Write(g, v)
	t.op(opWrite, start)
	return err
}

func (t *publicTxn) Commit() error {
	start := t.b.tr.now()
	err := t.Txn.Commit()
	t.op(opCommit, start)
	return err
}

func (t *publicTxn) Abort() error {
	start := t.b.tr.now()
	err := t.Txn.Abort()
	t.op(opAbort, start)
	return err
}

// ---- vfs.FS decorator ----

// timedFS times the storage calls of the durability layer: Write and
// Sync on every file it opens, Rename (snapshot publish). Counters are
// always kept — they are atomic adds next to a write or an fsync — and
// spans are recorded while the tracer is on.
type timedFS struct {
	vfs.FS
	tr *tracer

	walWrites, walWriteBytes, walSyncs atomic.Int64
	walSyncNs                          atomic.Int64
	otherBytes                         atomic.Int64
	// syncs holds every WAL fsync duration of the traced phase, for its
	// percentiles. Appended by the one flusher goroutine (and, across a
	// snapshot's log.Sync, under the log's own file lock), read after
	// the engine has closed.
	syncs []time.Duration
}

func (fs *timedFS) wrap(f vfs.File, name string, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return &timedFile{File: f, fs: fs, wal: filepath.Base(name) == "wal.log"}, nil
}

func (fs *timedFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	return fs.wrap(f, name, err)
}

func (fs *timedFS) Open(name string) (vfs.File, error) {
	f, err := fs.FS.Open(name)
	return fs.wrap(f, name, err)
}

func (fs *timedFS) Create(name string) (vfs.File, error) {
	f, err := fs.FS.Create(name)
	return fs.wrap(f, name, err)
}

func (fs *timedFS) Rename(oldpath, newpath string) error {
	start := fs.tr.now()
	err := fs.FS.Rename(oldpath, newpath)
	if fs.tr.on.Load() {
		fs.tr.record(span{kind: spanVfsRename, start: start, end: fs.tr.now()})
	}
	return err
}

type timedFile struct {
	vfs.File
	fs  *timedFS
	wal bool
}

func (f *timedFile) Write(p []byte) (int, error) {
	start := f.fs.tr.now()
	n, err := f.File.Write(p)
	if f.wal {
		f.fs.walWrites.Add(1)
		f.fs.walWriteBytes.Add(int64(n))
	} else {
		f.fs.otherBytes.Add(int64(n))
	}
	if f.fs.tr.on.Load() {
		f.fs.tr.record(span{kind: spanVfsWrite, wal: f.wal, start: start, end: f.fs.tr.now()})
	}
	return n, err
}

func (f *timedFile) Sync() error {
	start := f.fs.tr.now()
	err := f.File.Sync()
	end := f.fs.tr.now()
	if f.wal {
		f.fs.walSyncs.Add(1)
		f.fs.walSyncNs.Add(end - start)
	}
	if f.fs.tr.on.Load() {
		if f.wal {
			f.fs.syncs = append(f.fs.syncs, time.Duration(end-start))
		}
		f.fs.tr.record(span{kind: spanVfsSync, wal: f.wal, start: start, end: end})
	}
	return err
}
