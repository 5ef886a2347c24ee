package tso

import (
	"bytes"
	"fmt"

	"hdd/internal/cc"
	"hdd/internal/mvstore"
	"hdd/internal/schema"
	"hdd/internal/vclock"
)

// MVTOConfig parameterizes an MVTO engine.
type MVTOConfig struct {
	// Clock is the shared logical clock; a fresh one is created if nil.
	Clock *vclock.Clock
	// Recorder observes the produced schedule; nil means no recording.
	Recorder cc.Recorder
}

// MVTO is multi-version timestamp ordering (Reed'78): the paper's Protocol
// B applied to the entire database. Reads never get rejected — an old
// reader is served an old version — but every read registers a read
// timestamp, which is exactly the overhead HDD removes for cross-class and
// read-only accesses.
type MVTO struct {
	clock *vclock.Clock
	store *mvstore.Store
	rec   cc.Recorder
	ctr   cc.Counters
}

var _ cc.Engine = (*MVTO)(nil)

// NewMVTO builds an MVTO engine.
func NewMVTO(cfg MVTOConfig) *MVTO {
	if cfg.Clock == nil {
		cfg.Clock = vclock.NewClock()
	}
	if cfg.Recorder == nil {
		cfg.Recorder = cc.NopRecorder{}
	}
	return &MVTO{clock: cfg.Clock, store: mvstore.New(), rec: cfg.Recorder}
}

// Name implements cc.Engine.
func (e *MVTO) Name() string { return "MVTO" }

// Close implements cc.Engine.
func (e *MVTO) Close() error { return nil }

// Stats implements cc.Engine.
func (e *MVTO) Stats() cc.Stats { return e.ctr.Snapshot() }

// Clock returns the engine's logical clock.
func (e *MVTO) Clock() *vclock.Clock { return e.clock }

// Store exposes the version store for tests.
func (e *MVTO) Store() *mvstore.Store { return e.store }

// Begin implements cc.Engine.
func (e *MVTO) Begin(class schema.ClassID) (cc.Txn, error) {
	init := e.clock.Tick()
	e.ctr.Begins.Add(1)
	e.rec.RecordBegin(init, class, false)
	return &mvtoTxn{eng: e, init: init, class: class}, nil
}

// BeginReadOnly implements cc.Engine. MVTO read-only transactions are
// ordinary transactions that happen not to write; their reads register like
// any other (Reed'78 has no read-only fast path — that is Chan'82/MV2PL and
// HDD territory).
func (e *MVTO) BeginReadOnly() (cc.Txn, error) {
	init := e.clock.Tick()
	e.ctr.Begins.Add(1)
	e.rec.RecordBegin(init, schema.NoClass, true)
	return &mvtoTxn{eng: e, init: init, class: schema.NoClass, readOnly: true}, nil
}

// mvtoTxn is an MVTO transaction.
type mvtoTxn struct {
	eng      *MVTO
	init     vclock.Time
	class    schema.ClassID
	readOnly bool
	done     bool
	writes   map[schema.GranuleID][]byte
}

var _ cc.Txn = (*mvtoTxn)(nil)

// ID implements cc.Txn.
func (t *mvtoTxn) ID() cc.TxnID { return t.init }

// Class implements cc.Txn.
func (t *mvtoTxn) Class() schema.ClassID { return t.class }

// Read implements cc.Txn: the latest version below the transaction's
// timestamp, registered, waiting out pending versions.
func (t *mvtoTxn) Read(g schema.GranuleID) ([]byte, error) {
	if t.done {
		return nil, cc.ErrTxnDone
	}
	e := t.eng
	e.ctr.Reads.Add(1)
	if v, ok := t.writes[g]; ok {
		e.rec.RecordRead(t.init, g, t.init, true)
		return bytes.Clone(v), nil
	}
	for {
		val, vts, ok, wait := e.store.ReadRegistered(g, t.init, t.init)
		if wait != nil {
			e.ctr.BlockedReads.Add(1)
			<-wait
			continue
		}
		e.ctr.ReadRegistrations.Add(1)
		e.rec.RecordRead(t.init, g, vts, ok)
		// The store returns shared immutable memory; the cc.Txn boundary
		// owes the caller a defensive copy.
		return bytes.Clone(val), nil
	}
}

// Write implements cc.Txn: install a pending version at the transaction's
// timestamp, rejecting writes that arrive too late.
func (t *mvtoTxn) Write(g schema.GranuleID, value []byte) error {
	if t.done {
		return cc.ErrTxnDone
	}
	if t.readOnly {
		return fmt.Errorf("tso: write in a read-only transaction")
	}
	e := t.eng
	e.ctr.Writes.Add(1)
	value = bytes.Clone(value) // the one copy: store and write set share it
	if _, ok := t.writes[g]; ok {
		e.store.UpdatePending(g, t.init, value)
		t.writes[g] = value
		return nil
	}
	if err := e.store.InstallChecked(g, t.init, value); err != nil {
		e.ctr.RejectedWrites.Add(1)
		t.abort()
		return &cc.AbortError{Reason: cc.ReasonWriteRejected, Err: err}
	}
	if t.writes == nil {
		t.writes = make(map[schema.GranuleID][]byte)
	}
	t.writes[g] = value
	e.rec.RecordWrite(t.init, g, t.init)
	return nil
}

// Commit implements cc.Txn.
func (t *mvtoTxn) Commit() error {
	if t.done {
		return cc.ErrTxnDone
	}
	t.done = true
	e := t.eng
	for g := range t.writes {
		e.store.Commit(g, t.init)
	}
	e.ctr.Commits.Add(1)
	e.rec.RecordCommit(t.init, e.clock.Tick())
	return nil
}

// Abort implements cc.Txn.
func (t *mvtoTxn) Abort() error {
	if t.done {
		return nil
	}
	t.abort()
	return nil
}

func (t *mvtoTxn) abort() {
	if t.done {
		return
	}
	t.done = true
	e := t.eng
	for g := range t.writes {
		e.store.Abort(g, t.init)
	}
	e.ctr.Aborts.Add(1)
	e.rec.RecordAbort(t.init, e.clock.Tick())
}
