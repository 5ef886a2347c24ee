// Package sdd1 implements a single-site, behaviorally faithful stand-in
// for the SDD-1 conflict-analysis scheduler (Bernstein'80) that the paper
// compares HDD against in Figure 10.
//
// Like HDD, SDD-1 exploits a-priori transaction analysis: transactions are
// grouped into classes with declared read and write sets, and a class
// conflict graph decides how much synchronization each access needs. The
// two rows of Figure 10 this package exists to reproduce are:
//
//   - intra-class synchronization: *serialized pipelining* — transactions
//     of one class run through their class pipe one at a time, in timestamp
//     order;
//   - inter-class synchronization: a read from another class's write
//     territory *may be blocked* until the writing class has processed
//     everything older than the reader's timestamp (conservative
//     timestamping); HDD's Protocol A never blocks.
//
// The genuinely distributed machinery of SDD-1 (redundant-update messages,
// nullwrites, four protocol grades) is out of scope for this single-site
// study; DESIGN.md documents the substitution. What is preserved is the
// synchronization *behaviour* the paper's comparison hinges on: reads can
// block, every class is serialized, and conflict analysis is class-based.
package sdd1

import (
	"bytes"
	"fmt"
	"sync"

	"hdd/internal/activity"
	"hdd/internal/cc"
	"hdd/internal/mvstore"
	"hdd/internal/schema"
	"hdd/internal/vclock"
)

// Config parameterizes the engine.
type Config struct {
	// Partition supplies the class read/write-set declarations (the same
	// transaction analysis HDD uses, giving an apples-to-apples
	// comparison). Required.
	Partition *schema.Partition
	// Recorder observes the produced schedule; nil means no recording.
	Recorder cc.Recorder
}

// Engine is the SDD-1-style conservative scheduler.
type Engine struct {
	part  *schema.Partition
	clock *vclock.Clock
	store *mvstore.Store
	act   *activity.Set
	rec   cc.Recorder
	ctr   cc.Counters

	// pipes serializes each class: transactions of a class hold the pipe
	// from first access to completion, in admission order.
	pipes []sync.Mutex
}

var _ cc.Engine = (*Engine)(nil)

// NewEngine builds the engine.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Partition == nil {
		return nil, fmt.Errorf("sdd1: Config.Partition is required")
	}
	if cfg.Recorder == nil {
		cfg.Recorder = cc.NopRecorder{}
	}
	n := cfg.Partition.NumClasses()
	return &Engine{
		part:  cfg.Partition,
		clock: vclock.NewClock(),
		store: mvstore.New(),
		act:   activity.NewSet(n),
		rec:   cfg.Recorder,
		pipes: make([]sync.Mutex, n),
	}, nil
}

// Name implements cc.Engine.
func (e *Engine) Name() string { return "SDD-1" }

// Close implements cc.Engine.
func (e *Engine) Close() error { return nil }

// Stats implements cc.Engine.
func (e *Engine) Stats() cc.Stats { return e.ctr.Snapshot() }

// Begin implements cc.Engine: admit the transaction to its class pipe.
// Admission blocks while an earlier transaction of the same class is still
// in the pipe — serialized pipelining.
func (e *Engine) Begin(class schema.ClassID) (cc.Txn, error) {
	if class < 0 || int(class) >= e.part.NumClasses() {
		return nil, fmt.Errorf("sdd1: unknown class %d", class)
	}
	// Take the pipe first, then the timestamp, so pipe order and
	// timestamp order agree within the class.
	e.pipes[class].Lock()
	init := e.act.BeginTxn(int(class), e.clock)
	e.ctr.Begins.Add(1)
	e.rec.RecordBegin(init, class, false)
	return &txn{eng: e, init: init, class: class, piped: true}, nil
}

// BeginReadOnly implements cc.Engine. SDD-1 gives read-only transactions no
// special handling (Figure 10): they run as a transaction that conflicts
// with every writing class, synchronizing conservatively against all of
// them.
func (e *Engine) BeginReadOnly() (cc.Txn, error) {
	// Read-only transactions drain every writing class up to their
	// timestamp, so it must be a barrier tick: a concurrently beginning
	// writer with a smaller tick must already be registered, or the
	// drain would conclude too early.
	init := e.act.TickBarrier(e.clock)
	e.ctr.Begins.Add(1)
	e.rec.RecordBegin(init, schema.NoClass, true)
	return &txn{eng: e, init: init, class: schema.NoClass}, nil
}

// waitForClass blocks until writing class c has resolved every transaction
// older than ts — the conservative-timestamping pipe drain. It reports
// whether it had to wait.
func (e *Engine) waitForClass(c schema.ClassID, ts vclock.Time) bool {
	tab := e.act.Class(int(c))
	waited := false
	for {
		ok, wakeup := tab.AwaitComputable(ts)
		if ok {
			return waited
		}
		waited = true
		<-wakeup
	}
}

// txn is one SDD-1 transaction.
type txn struct {
	eng    *Engine
	init   vclock.Time
	class  schema.ClassID
	piped  bool
	done   bool
	writes map[schema.GranuleID][]byte
	// drained caches classes already waited for.
	drained map[schema.ClassID]bool
}

var _ cc.Txn = (*txn)(nil)

// ID implements cc.Txn.
func (t *txn) ID() cc.TxnID { return t.init }

// Class implements cc.Txn.
func (t *txn) Class() schema.ClassID { return t.class }

// Read implements cc.Txn: before reading a granule in segment s, drain the
// class rooted at s of all transactions older than the reader (except the
// reader's own class, which the pipe already serializes). The read itself
// then returns the latest committed version — stable for timestamps below
// the drained watermark.
func (t *txn) Read(g schema.GranuleID) ([]byte, error) {
	if t.done {
		return nil, cc.ErrTxnDone
	}
	e := t.eng
	if g.Segment < 0 || int(g.Segment) >= e.part.NumSegments() {
		return nil, fmt.Errorf("sdd1: unknown segment %d", g.Segment)
	}
	e.ctr.Reads.Add(1)
	if v, ok := t.writes[g]; ok {
		e.rec.RecordRead(t.init, g, t.init, true)
		return bytes.Clone(v), nil
	}
	writerClass := schema.ClassID(g.Segment)
	if writerClass != t.class && !t.drained[writerClass] {
		if e.waitForClass(writerClass, t.init) {
			e.ctr.BlockedReads.Add(1)
		}
		if t.drained == nil {
			t.drained = make(map[schema.ClassID]bool)
		}
		t.drained[writerClass] = true
	}
	// Conservative timestamping makes "latest version below my timestamp"
	// stable once the writer class is drained.
	val, vts, ok := e.store.ReadCommittedBefore(g, t.init)
	e.rec.RecordRead(t.init, g, vts, ok)
	// The store returns shared immutable memory; the cc.Txn boundary owes
	// the caller a defensive copy.
	return bytes.Clone(val), nil
}

// Write implements cc.Txn: writes go to the transaction's own segment; the
// class pipe guarantees exclusive, timestamp-ordered access to it.
func (t *txn) Write(g schema.GranuleID, value []byte) error {
	if t.done {
		return cc.ErrTxnDone
	}
	e := t.eng
	if t.class == schema.NoClass {
		return fmt.Errorf("sdd1: write in a read-only transaction")
	}
	if !e.part.MayWrite(t.class, g.Segment) {
		err := &cc.AbortError{Reason: cc.ReasonClassViolation,
			Err: fmt.Errorf("class %d may not write segment %d", t.class, g.Segment)}
		t.abort()
		return err
	}
	e.ctr.Writes.Add(1)
	value = bytes.Clone(value) // the one copy: store and write set share it
	if _, ok := t.writes[g]; ok {
		e.store.UpdatePending(g, t.init, value)
		t.writes[g] = value
		return nil
	}
	if err := e.store.InstallChecked(g, t.init, value); err != nil {
		// Cannot happen: the pipe serializes the class, and only this
		// class writes the segment.
		panic(err)
	}
	if t.writes == nil {
		t.writes = make(map[schema.GranuleID][]byte)
	}
	t.writes[g] = value
	e.rec.RecordWrite(t.init, g, t.init)
	return nil
}

// Commit implements cc.Txn.
func (t *txn) Commit() error {
	if t.done {
		return cc.ErrTxnDone
	}
	t.done = true
	e := t.eng
	for g := range t.writes {
		e.store.Commit(g, t.init)
	}
	at := e.clock.Tick()
	if t.class != schema.NoClass {
		at = e.act.FinishTxn(int(t.class), t.init, e.clock, false)
	}
	if t.piped {
		e.pipes[t.class].Unlock()
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
	for g := range t.writes {
		e.store.Abort(g, t.init)
	}
	at := e.clock.Tick()
	if t.class != schema.NoClass {
		at = e.act.FinishTxn(int(t.class), t.init, e.clock, true)
	}
	if t.piped {
		e.pipes[t.class].Unlock()
	}
	e.ctr.Aborts.Add(1)
	e.rec.RecordAbort(t.init, at)
}
