package twopl

import (
	"bytes"
	"fmt"
	"sync"

	"hdd/internal/cc"
	"hdd/internal/mvstore"
	"hdd/internal/schema"
	"hdd/internal/vclock"
)

// Variant selects the locking engine flavor.
type Variant uint8

const (
	// Strict is classical strict two-phase locking: every read sets a
	// shared lock, every write an exclusive lock, all locks are held to
	// commit. Read-only transactions lock like everyone else.
	Strict Variant = iota
	// MultiVersion is MV2PL (after Chan'82): update transactions run
	// strict 2PL, but read-only transactions read a start-time snapshot
	// by commit time and take no locks at all — "never block or reject",
	// the Figure 10 row HDD is compared against.
	MultiVersion
)

// Config parameterizes a locking engine.
type Config struct {
	// Variant selects Strict or MultiVersion. Defaults to Strict.
	Variant Variant
	// Clock is the shared logical clock; a fresh one is created if nil.
	Clock *vclock.Clock
	// Recorder observes the produced schedule; nil means no recording.
	Recorder cc.Recorder
}

// Engine is a strict-2PL or MV2PL engine. It does not consult class specs:
// the classical baselines assume any transaction may read or write any part
// of the database, which is exactly the assumption the paper's technique
// relaxes (§1.2.1).
type Engine struct {
	variant Variant
	clock   *vclock.Clock
	store   *mvstore.Store
	locks   *Manager
	rec     cc.Recorder
	ctr     cc.Counters

	// commitMu makes "stamp commit instant + flip all versions" atomic
	// with respect to snapshot acquisition, so an MV2PL snapshot never
	// observes a half-committed transaction.
	commitMu sync.Mutex
}

var _ cc.Engine = (*Engine)(nil)

// NewEngine builds a locking engine.
func NewEngine(cfg Config) *Engine {
	if cfg.Clock == nil {
		cfg.Clock = vclock.NewClock()
	}
	if cfg.Recorder == nil {
		cfg.Recorder = cc.NopRecorder{}
	}
	return &Engine{
		variant: cfg.Variant,
		clock:   cfg.Clock,
		store:   mvstore.New(),
		locks:   NewManager(),
		rec:     cfg.Recorder,
	}
}

// Name implements cc.Engine.
func (e *Engine) Name() string {
	if e.variant == MultiVersion {
		return "MV2PL"
	}
	return "2PL"
}

// Close implements cc.Engine.
func (e *Engine) Close() error { return nil }

// Stats implements cc.Engine.
func (e *Engine) Stats() cc.Stats { return e.ctr.Snapshot() }

// Clock returns the engine's logical clock.
func (e *Engine) Clock() *vclock.Clock { return e.clock }

// Begin implements cc.Engine. The class is recorded for the schedule but
// plays no role in synchronization.
func (e *Engine) Begin(class schema.ClassID) (cc.Txn, error) {
	init := e.clock.Tick()
	e.ctr.Begins.Add(1)
	e.rec.RecordBegin(init, class, false)
	return &lockTxn{eng: e, init: init, class: class}, nil
}

// BeginReadOnly implements cc.Engine. Under Strict the transaction locks
// like any other; under MultiVersion it reads a lock-free snapshot.
func (e *Engine) BeginReadOnly() (cc.Txn, error) {
	init := e.clock.Tick()
	e.ctr.Begins.Add(1)
	e.rec.RecordBegin(init, schema.NoClass, true)
	if e.variant == MultiVersion {
		e.commitMu.Lock()
		asOf := e.clock.Tick()
		e.commitMu.Unlock()
		return &snapshotTxn{eng: e, init: init, asOf: asOf}, nil
	}
	return &lockTxn{eng: e, init: init, class: schema.NoClass, readOnly: true}, nil
}

// lockTxn is a strict-2PL transaction.
type lockTxn struct {
	eng      *Engine
	init     vclock.Time
	class    schema.ClassID
	readOnly bool
	done     bool
	// writes maps granules to the write timestamp of the pending version
	// this transaction installed, plus the buffered value for
	// read-your-own-writes.
	writes map[schema.GranuleID]ownWrite
}

type ownWrite struct {
	ts    vclock.Time
	value []byte
}

var _ cc.Txn = (*lockTxn)(nil)

// ID implements cc.Txn.
func (t *lockTxn) ID() cc.TxnID { return t.init }

// Class implements cc.Txn.
func (t *lockTxn) Class() schema.ClassID { return t.class }

// Read implements cc.Txn: shared lock, then latest committed version.
func (t *lockTxn) Read(g schema.GranuleID) ([]byte, error) {
	if t.done {
		return nil, cc.ErrTxnDone
	}
	e := t.eng
	e.ctr.Reads.Add(1)
	if w, ok := t.writes[g]; ok {
		e.rec.RecordRead(t.init, g, w.ts, true)
		return bytes.Clone(w.value), nil
	}
	blocked, err := e.locks.Acquire(t.init, g, Shared)
	if blocked {
		e.ctr.BlockedReads.Add(1)
	}
	if err != nil {
		e.ctr.Deadlocks.Add(1)
		t.abort()
		return nil, &cc.AbortError{Reason: cc.ReasonDeadlock, Err: err}
	}
	e.ctr.ReadRegistrations.Add(1) // the shared lock is the read's trace
	val, vts, ok := e.store.ReadCommittedBefore(g, vclock.Infinity)
	e.rec.RecordRead(t.init, g, vts, ok)
	// The store returns shared immutable memory; the cc.Txn boundary owes
	// the caller a defensive copy.
	return bytes.Clone(val), nil
}

// Write implements cc.Txn: exclusive lock, then install a pending version.
func (t *lockTxn) Write(g schema.GranuleID, value []byte) error {
	if t.done {
		return cc.ErrTxnDone
	}
	if t.readOnly {
		return fmt.Errorf("twopl: write in a read-only transaction")
	}
	e := t.eng
	e.ctr.Writes.Add(1)
	blocked, err := e.locks.Acquire(t.init, g, Exclusive)
	if blocked {
		e.ctr.BlockedWrites.Add(1)
	}
	if err != nil {
		e.ctr.Deadlocks.Add(1)
		t.abort()
		return &cc.AbortError{Reason: cc.ReasonDeadlock, Err: err}
	}
	value = bytes.Clone(value) // the one copy: store and write set share it
	if w, ok := t.writes[g]; ok {
		e.store.UpdatePending(g, w.ts, value)
		t.writes[g] = ownWrite{ts: w.ts, value: value}
		return nil
	}
	// Version timestamps are install instants: the exclusive lock
	// serializes writers of g, so chains stay ordered.
	wts := e.clock.Tick()
	if err := e.store.InstallPending(g, wts, value); err != nil {
		// Impossible under the exclusive lock; treat as fatal.
		panic(err)
	}
	if t.writes == nil {
		t.writes = make(map[schema.GranuleID]ownWrite)
	}
	t.writes[g] = ownWrite{ts: wts, value: value}
	e.rec.RecordWrite(t.init, g, wts)
	return nil
}

// Commit implements cc.Txn: flip versions with a commit stamp, then release
// all locks (strictness).
func (t *lockTxn) Commit() error {
	if t.done {
		return cc.ErrTxnDone
	}
	t.done = true
	e := t.eng
	e.commitMu.Lock()
	at := e.clock.Tick()
	for g, w := range t.writes {
		e.store.CommitAt(g, w.ts, at)
	}
	e.commitMu.Unlock()
	e.locks.ReleaseAll(t.init)
	e.ctr.Commits.Add(1)
	e.rec.RecordCommit(t.init, at)
	return nil
}

// Abort implements cc.Txn.
func (t *lockTxn) Abort() error {
	if t.done {
		return nil
	}
	t.abort()
	return nil
}

func (t *lockTxn) abort() {
	if t.done {
		return
	}
	t.done = true
	e := t.eng
	for g, w := range t.writes {
		e.store.Abort(g, w.ts)
	}
	e.locks.ReleaseAll(t.init)
	at := e.clock.Tick()
	e.ctr.Aborts.Add(1)
	e.rec.RecordAbort(t.init, at)
}

// snapshotTxn is an MV2PL read-only transaction: lock-free reads of the
// newest versions committed before the transaction started.
type snapshotTxn struct {
	eng  *Engine
	init vclock.Time
	asOf vclock.Time
	done bool
}

var _ cc.Txn = (*snapshotTxn)(nil)

// ID implements cc.Txn.
func (t *snapshotTxn) ID() cc.TxnID { return t.init }

// Class implements cc.Txn.
func (t *snapshotTxn) Class() schema.ClassID { return schema.NoClass }

// Read implements cc.Txn.
func (t *snapshotTxn) Read(g schema.GranuleID) ([]byte, error) {
	if t.done {
		return nil, cc.ErrTxnDone
	}
	e := t.eng
	e.ctr.Reads.Add(1)
	val, vts, ok := e.store.ReadCommittedAsOf(g, t.asOf)
	e.rec.RecordRead(t.init, g, vts, ok)
	// The store returns shared immutable memory; the cc.Txn boundary owes
	// the caller a defensive copy.
	return bytes.Clone(val), nil
}

// Write implements cc.Txn; snapshot transactions cannot write.
func (t *snapshotTxn) Write(schema.GranuleID, []byte) error {
	return fmt.Errorf("twopl: write in a read-only snapshot transaction")
}

// Commit implements cc.Txn.
func (t *snapshotTxn) Commit() error {
	if t.done {
		return cc.ErrTxnDone
	}
	t.done = true
	e := t.eng
	e.ctr.Commits.Add(1)
	e.rec.RecordCommit(t.init, e.clock.Tick())
	return nil
}

// Abort implements cc.Txn.
func (t *snapshotTxn) Abort() error {
	if t.done {
		return nil
	}
	t.done = true
	e := t.eng
	e.ctr.Aborts.Add(1)
	e.rec.RecordAbort(t.init, e.clock.Tick())
	return nil
}
