// Package naive implements two deliberately *unsound* engines that
// mechanize the paper's motivating anomalies:
//
//   - Figure 3: two-phase locking in which transactions skip read locks on
//     segments outside their own root segment. Under the paper's 3-way
//     timing of inventory transactions, serializability is violated.
//   - Figure 4: timestamp ordering in which such reads leave no read
//     timestamp (and are served the latest committed value), with the
//     analogous violation.
//
// The point of the paper is that dropping this read registration is only
// safe when the activity-link machinery replaces it; these engines drop it
// with nothing in return, and the serializability checker exhibits the
// resulting dependency cycles. They must never be used for anything but
// the anomaly experiments.
package naive

import (
	"bytes"
	"fmt"

	"hdd/internal/cc"
	"hdd/internal/mvstore"
	"hdd/internal/schema"
	"hdd/internal/twopl"
	"hdd/internal/vclock"
)

// Flavor selects which classical technique is being sabotaged.
type Flavor uint8

const (
	// LockingNoReadLocks is 2PL without cross-segment read locks (Figure 3).
	LockingNoReadLocks Flavor = iota
	// TimestampNoReadStamps is TO without cross-segment read timestamps
	// (Figure 4).
	TimestampNoReadStamps
)

// Config parameterizes a naive engine.
type Config struct {
	// Partition tells the engine which segment each class owns, so it
	// knows which reads to (unsoundly) leave uncontrolled. Required.
	Partition *schema.Partition
	// Flavor selects the sabotaged technique.
	Flavor Flavor
	// Recorder observes the produced schedule; nil means no recording.
	Recorder cc.Recorder
}

// Engine is the unsound engine.
type Engine struct {
	part   *schema.Partition
	flavor Flavor
	clock  *vclock.Clock
	store  *mvstore.Store
	locks  *twopl.Manager
	rec    cc.Recorder
	ctr    cc.Counters
}

var _ cc.Engine = (*Engine)(nil)

// NewEngine builds a naive engine.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Partition == nil {
		return nil, fmt.Errorf("naive: Config.Partition is required")
	}
	if cfg.Recorder == nil {
		cfg.Recorder = cc.NopRecorder{}
	}
	return &Engine{
		part:   cfg.Partition,
		flavor: cfg.Flavor,
		clock:  vclock.NewClock(),
		store:  mvstore.New(),
		locks:  twopl.NewManager(),
		rec:    cfg.Recorder,
	}, nil
}

// Name implements cc.Engine.
func (e *Engine) Name() string {
	if e.flavor == TimestampNoReadStamps {
		return "TO-noRTS"
	}
	return "2PL-noRL"
}

// Close implements cc.Engine.
func (e *Engine) Close() error { return nil }

// Stats implements cc.Engine.
func (e *Engine) Stats() cc.Stats { return e.ctr.Snapshot() }

// Clock returns the engine's logical clock.
func (e *Engine) Clock() *vclock.Clock { return e.clock }

// Begin implements cc.Engine.
func (e *Engine) Begin(class schema.ClassID) (cc.Txn, error) {
	if class < 0 || int(class) >= e.part.NumClasses() {
		return nil, fmt.Errorf("naive: unknown class %d", class)
	}
	init := e.clock.Tick()
	e.ctr.Begins.Add(1)
	e.rec.RecordBegin(init, class, false)
	return &txn{eng: e, init: init, class: class}, nil
}

// BeginReadOnly implements cc.Engine: a read-only transaction whose every
// read is uncontrolled — the fully naive ad-hoc query.
func (e *Engine) BeginReadOnly() (cc.Txn, error) {
	init := e.clock.Tick()
	e.ctr.Begins.Add(1)
	e.rec.RecordBegin(init, schema.NoClass, true)
	return &txn{eng: e, init: init, class: schema.NoClass, readOnly: true}, nil
}

// txn is a naive transaction: sound inside its root segment, unsound
// outside it.
type txn struct {
	eng      *Engine
	init     vclock.Time
	class    schema.ClassID
	readOnly bool
	done     bool
	writes   map[schema.GranuleID]ownWrite
}

type ownWrite struct {
	ts    vclock.Time
	value []byte
}

var _ cc.Txn = (*txn)(nil)

// ID implements cc.Txn.
func (t *txn) ID() cc.TxnID { return t.init }

// Class implements cc.Txn.
func (t *txn) Class() schema.ClassID { return t.class }

func (t *txn) inRoot(g schema.GranuleID) bool {
	return t.class != schema.NoClass && t.eng.part.Class(t.class).Writes == g.Segment
}

// Read implements cc.Txn. Root-segment reads are controlled (shared lock /
// registered read). Reads elsewhere just grab the latest committed value
// with no lock, no timestamp, no threshold — the sabotage.
func (t *txn) Read(g schema.GranuleID) ([]byte, error) {
	if t.done {
		return nil, cc.ErrTxnDone
	}
	e := t.eng
	e.ctr.Reads.Add(1)
	if w, ok := t.writes[g]; ok {
		e.rec.RecordRead(t.init, g, w.ts, true)
		return bytes.Clone(w.value), nil
	}
	if t.inRoot(g) {
		switch e.flavor {
		case LockingNoReadLocks:
			blocked, err := e.locks.Acquire(t.init, g, twopl.Shared)
			if blocked {
				e.ctr.BlockedReads.Add(1)
			}
			if err != nil {
				e.ctr.Deadlocks.Add(1)
				t.abort()
				return nil, &cc.AbortError{Reason: cc.ReasonDeadlock, Err: err}
			}
			e.ctr.ReadRegistrations.Add(1)
		case TimestampNoReadStamps:
			// Register the read against the version (sound inside the
			// root segment).
			for {
				val, vts, ok, wait := e.store.ReadRegistered(g, t.init, t.init)
				if wait != nil {
					e.ctr.BlockedReads.Add(1)
					<-wait
					continue
				}
				e.ctr.ReadRegistrations.Add(1)
				e.rec.RecordRead(t.init, g, vts, ok)
				return bytes.Clone(val), nil
			}
		}
	}
	// Uncontrolled read: latest committed value, no trace. The store
	// returns shared immutable memory; the cc.Txn boundary owes the caller
	// a defensive copy.
	val, vts, ok := e.store.ReadCommittedBefore(g, vclock.Infinity)
	e.rec.RecordRead(t.init, g, vts, ok)
	return bytes.Clone(val), nil
}

// Write implements cc.Txn: writes stay fully controlled under either
// flavor (the paper's anomalies only drop *read* synchronization).
func (t *txn) Write(g schema.GranuleID, value []byte) error {
	if t.done {
		return cc.ErrTxnDone
	}
	if t.readOnly {
		return fmt.Errorf("naive: write in a read-only transaction")
	}
	e := t.eng
	e.ctr.Writes.Add(1)
	value = bytes.Clone(value) // the one copy: store and write set share it
	if w, ok := t.writes[g]; ok {
		e.store.UpdatePending(g, w.ts, value)
		t.writes[g] = ownWrite{ts: w.ts, value: value}
		return nil
	}
	var wts vclock.Time
	switch e.flavor {
	case LockingNoReadLocks:
		blocked, err := e.locks.Acquire(t.init, g, twopl.Exclusive)
		if blocked {
			e.ctr.BlockedWrites.Add(1)
		}
		if err != nil {
			e.ctr.Deadlocks.Add(1)
			t.abort()
			return &cc.AbortError{Reason: cc.ReasonDeadlock, Err: err}
		}
		wts = e.clock.Tick()
		if err := e.store.InstallPending(g, wts, value); err != nil {
			panic(err)
		}
	case TimestampNoReadStamps:
		wts = t.init
		if err := e.store.InstallChecked(g, t.init, value); err != nil {
			e.ctr.RejectedWrites.Add(1)
			t.abort()
			return &cc.AbortError{Reason: cc.ReasonWriteRejected, Err: err}
		}
	}
	if t.writes == nil {
		t.writes = make(map[schema.GranuleID]ownWrite)
	}
	t.writes[g] = ownWrite{ts: wts, value: value}
	e.rec.RecordWrite(t.init, g, wts)
	return nil
}

// Commit implements cc.Txn.
func (t *txn) Commit() error {
	if t.done {
		return cc.ErrTxnDone
	}
	t.done = true
	e := t.eng
	at := e.clock.Tick()
	for g, w := range t.writes {
		e.store.CommitAt(g, w.ts, at)
	}
	if e.flavor == LockingNoReadLocks {
		e.locks.ReleaseAll(t.init)
	}
	e.ctr.Commits.Add(1)
	e.rec.RecordCommit(t.init, at)
	return nil
}

// Abort implements cc.Txn.
func (t *txn) Abort() error {
	if t.done {
		return nil
	}
	t.abort()
	return nil
}

func (t *txn) abort() {
	if t.done {
		return
	}
	t.done = true
	e := t.eng
	for g, w := range t.writes {
		e.store.Abort(g, w.ts)
	}
	if e.flavor == LockingNoReadLocks {
		e.locks.ReleaseAll(t.init)
	}
	e.ctr.Aborts.Add(1)
	e.rec.RecordAbort(t.init, e.clock.Tick())
}
