// Package tso implements the timestamp-ordering baselines the paper builds
// on and compares against (§1.3): basic timestamp ordering (Bernstein'80)
// over single-version granules, and multi-version timestamp ordering
// (Reed'78) over version chains — the paper's Protocol B, applied
// uniformly to the whole database so the cost of registering *every* read
// can be measured against HDD.
package tso

import (
	"bytes"
	"fmt"
	"sync"

	"hdd/internal/cc"
	"hdd/internal/schema"
	"hdd/internal/vclock"
)

// granule is the single-version TO state of one data granule.
type granule struct {
	mu sync.Mutex
	// committed value and the write timestamp of the transaction that
	// produced it; wts 0 means never written.
	value []byte
	wts   vclock.Time
	// rts is the largest read timestamp registered.
	rts vclock.Time
	// pending is the prewrite of an active transaction, nil if none. At
	// most one prewrite per granule is outstanding: a second writer waits
	// (if younger) or is rejected (if older).
	pending *prewrite
}

type prewrite struct {
	ts    vclock.Time
	value []byte
	done  chan struct{}
	// committed reports how the prewrite resolved, valid after done.
	committed bool
}

// BasicConfig parameterizes a basic-TO engine.
type BasicConfig struct {
	// Recorder observes the produced schedule; nil means no recording.
	Recorder cc.Recorder
}

// Basic is the basic timestamp-ordering engine: every read leaves a read
// timestamp and may be rejected when it arrives too late; writes are
// rejected when they would invalidate a past read or write.
type Basic struct {
	clock *vclock.Clock
	rec   cc.Recorder
	ctr   cc.Counters

	mu       sync.Mutex
	granules map[schema.GranuleID]*granule
}

var _ cc.Engine = (*Basic)(nil)

// NewBasic builds a basic-TO engine.
func NewBasic(cfg BasicConfig) *Basic {
	if cfg.Recorder == nil {
		cfg.Recorder = cc.NopRecorder{}
	}
	return &Basic{clock: vclock.NewClock(), rec: cfg.Recorder, granules: make(map[schema.GranuleID]*granule)}
}

// Name implements cc.Engine.
func (e *Basic) Name() string { return "TO" }

// Close implements cc.Engine.
func (e *Basic) Close() error { return nil }

// Stats implements cc.Engine.
func (e *Basic) Stats() cc.Stats { return e.ctr.Snapshot() }

// Clock returns the engine's logical clock.
func (e *Basic) Clock() *vclock.Clock { return e.clock }

func (e *Basic) granuleOf(g schema.GranuleID) *granule {
	e.mu.Lock()
	defer e.mu.Unlock()
	gr := e.granules[g]
	if gr == nil {
		gr = &granule{}
		e.granules[g] = gr
	}
	return gr
}

// Begin implements cc.Engine.
func (e *Basic) Begin(class schema.ClassID) (cc.Txn, error) {
	init := e.clock.Tick()
	e.ctr.Begins.Add(1)
	e.rec.RecordBegin(init, class, false)
	return &basicTxn{eng: e, init: init, class: class}, nil
}

// BeginReadOnly implements cc.Engine. Basic TO gives read-only transactions
// no special treatment: they timestamp and register like everyone else.
func (e *Basic) BeginReadOnly() (cc.Txn, error) {
	init := e.clock.Tick()
	e.ctr.Begins.Add(1)
	e.rec.RecordBegin(init, schema.NoClass, true)
	return &basicTxn{eng: e, init: init, class: schema.NoClass, readOnly: true}, nil
}

// basicTxn is a basic-TO transaction.
type basicTxn struct {
	eng      *Basic
	init     vclock.Time
	class    schema.ClassID
	readOnly bool
	done     bool
	// writes tracks granules this transaction has prewritten, with the
	// buffered values for read-your-own-writes.
	writes map[schema.GranuleID][]byte
}

var _ cc.Txn = (*basicTxn)(nil)

// ID implements cc.Txn.
func (t *basicTxn) ID() cc.TxnID { return t.init }

// Class implements cc.Txn.
func (t *basicTxn) Class() schema.ClassID { return t.class }

// Read implements cc.Txn, the basic-TO read rule: reject if a younger
// transaction already wrote the granule; otherwise register the read
// timestamp and return the committed value, waiting out any older
// uncommitted prewrite first (commit-dependency avoidance).
func (t *basicTxn) Read(g schema.GranuleID) ([]byte, error) {
	if t.done {
		return nil, cc.ErrTxnDone
	}
	e := t.eng
	e.ctr.Reads.Add(1)
	if v, ok := t.writes[g]; ok {
		e.rec.RecordRead(t.init, g, t.init, true)
		return bytes.Clone(v), nil
	}
	gr := e.granuleOf(g)
	for {
		gr.mu.Lock()
		if gr.pending != nil && gr.pending.ts < t.init {
			// An older writer's fate decides what we read; wait it out.
			done := gr.pending.done
			gr.mu.Unlock()
			e.ctr.BlockedReads.Add(1)
			<-done
			continue
		}
		if gr.wts > t.init {
			// A younger transaction already wrote: reading the current
			// value would be reading "the future". Reject.
			wts := gr.wts
			gr.mu.Unlock()
			e.ctr.RejectedReads.Add(1)
			t.abort()
			return nil, &cc.AbortError{Reason: cc.ReasonReadRejected,
				Err: fmt.Errorf("tso: read of %v at %d after write at %d", g, t.init, wts)}
		}
		if t.init > gr.rts {
			gr.rts = t.init
		}
		e.ctr.ReadRegistrations.Add(1)
		val, wts := gr.value, gr.wts
		gr.mu.Unlock()
		e.rec.RecordRead(t.init, g, wts, wts != 0)
		if val == nil {
			return nil, nil
		}
		return bytes.Clone(val), nil
	}
}

// Write implements cc.Txn, the basic-TO write rule with prewrites: reject
// if a younger transaction already read or wrote the granule; wait out an
// older outstanding prewrite; then install our own prewrite.
func (t *basicTxn) Write(g schema.GranuleID, value []byte) error {
	if t.done {
		return cc.ErrTxnDone
	}
	if t.readOnly {
		return fmt.Errorf("tso: write in a read-only transaction")
	}
	e := t.eng
	e.ctr.Writes.Add(1)
	if _, ok := t.writes[g]; ok {
		t.writes[g] = bytes.Clone(value)
		return nil
	}
	gr := e.granuleOf(g)
	for {
		gr.mu.Lock()
		if gr.rts > t.init || gr.wts > t.init {
			rts, wts := gr.rts, gr.wts
			gr.mu.Unlock()
			e.ctr.RejectedWrites.Add(1)
			t.abort()
			return &cc.AbortError{Reason: cc.ReasonWriteRejected,
				Err: fmt.Errorf("tso: write of %v at %d after read at %d / write at %d", g, t.init, rts, wts)}
		}
		if gr.pending != nil {
			if gr.pending.ts > t.init {
				// A younger prewrite is outstanding; ours arrived too
				// late.
				pts := gr.pending.ts
				gr.mu.Unlock()
				e.ctr.RejectedWrites.Add(1)
				t.abort()
				return &cc.AbortError{Reason: cc.ReasonWriteRejected,
					Err: fmt.Errorf("tso: write of %v at %d behind prewrite at %d", g, t.init, pts)}
			}
			done := gr.pending.done
			gr.mu.Unlock()
			e.ctr.BlockedWrites.Add(1)
			<-done
			continue
		}
		gr.pending = &prewrite{ts: t.init, value: bytes.Clone(value), done: make(chan struct{})}
		gr.mu.Unlock()
		if t.writes == nil {
			t.writes = make(map[schema.GranuleID][]byte)
		}
		t.writes[g] = bytes.Clone(value)
		e.rec.RecordWrite(t.init, g, t.init)
		return nil
	}
}

// Commit implements cc.Txn.
func (t *basicTxn) Commit() error {
	if t.done {
		return cc.ErrTxnDone
	}
	t.done = true
	e := t.eng
	for g, v := range t.writes {
		gr := e.granuleOf(g)
		gr.mu.Lock()
		p := gr.pending
		if p == nil || p.ts != t.init {
			gr.mu.Unlock()
			panic(fmt.Sprintf("tso: commit of %v without prewrite", g))
		}
		gr.value = bytes.Clone(v)
		gr.wts = t.init
		gr.pending = nil
		p.committed = true
		gr.mu.Unlock()
		close(p.done)
	}
	e.ctr.Commits.Add(1)
	e.rec.RecordCommit(t.init, e.clock.Tick())
	return nil
}

// Abort implements cc.Txn.
func (t *basicTxn) Abort() error {
	if t.done {
		return nil
	}
	t.abort()
	return nil
}

func (t *basicTxn) abort() {
	if t.done {
		return
	}
	t.done = true
	e := t.eng
	for g := range t.writes {
		gr := e.granuleOf(g)
		gr.mu.Lock()
		if p := gr.pending; p != nil && p.ts == t.init {
			gr.pending = nil
			gr.mu.Unlock()
			close(p.done)
		} else {
			gr.mu.Unlock()
		}
	}
	e.ctr.Aborts.Add(1)
	e.rec.RecordAbort(t.init, e.clock.Tick())
}
