package core

import (
	"fmt"
	"sync"
	"time"

	"hdd/internal/cc"
	"hdd/internal/obs"
	"hdd/internal/schema"
	"hdd/internal/vclock"
	"hdd/internal/wal"
)

// updateTxn is an update transaction of one class: Protocol A for reads
// outside its root segment, Protocol B inside it (§4.2). An ad-hoc
// transaction (§7.1, adhoc.go) is an updateTxn of its write segment's class
// that holds its conflict set drained for its lifetime and reads the latest
// committed version of any segment it declared.
//
// The mutex exists for the reaper: the owning client drives Read/Write/
// Commit/Abort from one goroutine, but the background reaper (and a Close
// racing a blocked read) may force-abort the transaction from another.
// Every state transition and every store mutation happens under mu, so a
// force-abort either observes an installed pending version (and removes
// it) or excludes the install entirely — no version can leak past the
// abort and pin the activity tables forever.
type updateTxn struct {
	eng      *Engine
	init     vclock.Time
	class    schema.ClassID
	deadline time.Time // zero = no deadline
	// held is an ad-hoc transaction's conflict set, locked exclusively in
	// the admission gate; nil for an ordinary transaction, which holds a
	// share of its own class's gate.
	held []schema.ClassID
	// readSet is an ad-hoc transaction's declared read set; nil = any
	// segment.
	readSet map[schema.SegmentID]bool

	mu   sync.Mutex
	done bool
	// deadErr is the sticky error set by a force-abort (reaper, deadline,
	// shutdown); subsequent operations return it so the client learns the
	// transaction was killed rather than finished.
	deadErr error
	// cancel is closed by a force-abort to wake a blocked read.
	cancel chan struct{}
	// writes tracks granules with an installed pending version, for
	// commit/abort and read-your-own-writes.
	writes map[schema.GranuleID][]byte
}

var _ cc.Txn = (*updateTxn)(nil)
var _ cc.SharedReader = (*updateTxn)(nil)
var _ liveTxn = (*updateTxn)(nil)

// ID implements cc.Txn.
func (t *updateTxn) ID() cc.TxnID { return t.init }

// Class implements cc.Txn.
func (t *updateTxn) Class() schema.ClassID { return t.class }

// doneErr is the error operations on a finished transaction surface: the
// sticky force-abort error if one was set, cc.ErrTxnDone otherwise.
func doneErr(sticky error) error {
	if sticky != nil {
		return sticky
	}
	return cc.ErrTxnDone
}

// copyOut is Read's defensive copy of a ReadShared result: the public
// boundary never hands callers engine-owned memory.
func copyOut(val []byte, err error) ([]byte, error) {
	if val == nil || err != nil {
		return nil, err
	}
	return append([]byte(nil), val...), nil
}

// Read implements cc.Txn.
func (t *updateTxn) Read(g schema.GranuleID) ([]byte, error) { return copyOut(t.ReadShared(g)) }

// ReadShared implements cc.SharedReader. An ad-hoc transaction reads the
// latest committed version. Otherwise reads in the root segment follow
// Protocol B (registered, may wait) and reads in higher segments follow
// Protocol A (non-blocking, trace-free — and wait-free all the way into the
// store, which serves them from the published chain with no locks and no
// copies). A blocked Protocol B read wakes on the transaction deadline
// (aborting with cc.ReasonTimedOut) and on engine shutdown (returning
// cc.ErrEngineClosed). The returned slice aliases immutable engine-owned
// memory.
func (t *updateTxn) ReadShared(g schema.GranuleID) ([]byte, error) {
	e := t.eng
	if err := e.closedErr(); err != nil {
		return nil, err
	}
	t.mu.Lock()
	if t.done {
		err := doneErr(t.deadErr)
		t.mu.Unlock()
		return nil, err
	}
	if v, ok := t.writes[g]; ok {
		// Own-write slices are immutable too: Write swaps in a fresh copy
		// rather than editing in place, so sharing v is safe.
		t.mu.Unlock()
		e.reads[readOwn].Inc()
		e.rec.RecordRead(t.init, g, t.init, true)
		return v, nil
	}
	t.mu.Unlock()
	switch {
	case t.held != nil:
		// Ad-hoc: exact, because no conflicting update runs concurrently.
		// A declared transaction may only read its declared segments:
		// anything else is outside the drained conflict set, where the
		// solo-execution argument does not hold.
		if t.readSet != nil && !t.readSet[g.Segment] {
			return nil, t.fail(cc.ReasonClassViolation,
				fmt.Errorf("ad-hoc transaction read segment %d outside its declared set", g.Segment))
		}
		val, vts, ok := e.store.ReadCommittedBefore(g, vclock.Infinity)
		e.reads[readAdHoc].Inc()
		e.rec.RecordRead(t.init, g, vts, ok)
		return val, nil
	case g.Segment == e.part.Class(t.class).Writes:
		// Protocol B: registered read at the transaction's own timestamp
		// (RootMVTO), or of the globally latest version with a
		// read-too-late rejection (RootBasicTO).
		bound := t.init
		if e.rootProto == RootBasicTO {
			bound = vclock.Infinity
		}
		for {
			val, vts, ok, wait := e.store.ReadRegistered(g, bound, t.init)
			if wait != nil {
				// Basic TO must reject a read behind a *younger*
				// prewrite rather than wait for it: the younger writer's
				// own reads may be waiting on this transaction's pending
				// versions the other way, and the age-ordered
				// no-deadlock argument only covers waits on elders.
				if e.rootProto == RootBasicTO && vts > t.init {
					e.ctr.RejectedReads.Add(1)
					return nil, t.fail(cc.ReasonReadRejected,
						fmt.Errorf("basic-TO root read of %v at %d behind prewrite at %d", g, t.init, vts))
				}
				e.ctr.BlockedReads.Add(1)
				if err := t.awaitResolve(g, wait); err != nil {
					return nil, err
				}
				// The reaper may have force-aborted the transaction while
				// the read was blocked; re-check before touching the
				// store again.
				t.mu.Lock()
				if t.done {
					err := doneErr(t.deadErr)
					t.mu.Unlock()
					return nil, err
				}
				t.mu.Unlock()
				continue
			}
			if e.rootProto == RootBasicTO && ok && vts > t.init {
				e.ctr.RejectedReads.Add(1)
				return nil, t.fail(cc.ReasonReadRejected,
					fmt.Errorf("basic-TO root read of %v at %d after write at %d", g, t.init, vts))
			}
			e.reads[readB].Inc()
			e.rec.RecordRead(t.init, g, vts, ok)
			return val, nil
		}
	case e.part.MayRead(t.class, g.Segment):
		// Protocol A: the segment is higher in the DHG; serve the latest
		// committed version below the activity-link threshold. Nothing is
		// registered and the read cannot block (§4.2).
		bound := e.links.A(t.class, schema.ClassID(g.Segment), t.init)
		val, vts, ok := e.store.ReadCommittedBefore(g, bound)
		e.reads[readA].Inc()
		e.rec.RecordRead(t.init, g, vts, ok)
		return val, nil
	default:
		return nil, t.fail(cc.ReasonClassViolation,
			fmt.Errorf("class %d (%q) may not read segment %d", t.class, e.part.Class(t.class).Name, g.Segment))
	}
}

// fail aborts the transaction and returns the abort error the failed
// operation reports. The caller must not hold t.mu.
func (t *updateTxn) fail(reason string, err error) error {
	t.abort()
	return &cc.AbortError{Reason: reason, Err: err}
}

// awaitResolve blocks a Protocol B read until the pending version it is
// waiting on resolves, the transaction deadline expires, the reaper kills
// the transaction, or the engine shuts down. A nil return means the
// version resolved and the read should retry.
func (t *updateTxn) awaitResolve(g schema.GranuleID, resolved <-chan struct{}) error {
	e := t.eng
	var timerC <-chan time.Time
	if !t.deadline.IsZero() {
		d := time.Until(t.deadline)
		if d < 0 {
			d = 0
		}
		timer := time.NewTimer(d)
		defer timer.Stop()
		timerC = timer.C
	}
	select {
	case <-resolved:
		return nil
	case <-t.cancel:
		// Force-aborted while blocked; deadErr was set before cancel
		// closed.
		t.mu.Lock()
		err := doneErr(t.deadErr)
		t.mu.Unlock()
		return err
	case <-e.closed:
		t.finishAbort(cc.ErrEngineClosed, false)
		return cc.ErrEngineClosed
	case <-timerC:
		e.ctr.TimedOutReads.Add(1)
		err := &cc.AbortError{Reason: cc.ReasonTimedOut,
			Err: fmt.Errorf("read of %v blocked past the transaction deadline", g)}
		t.finishAbort(err, false)
		return err
	}
}

// Write implements cc.Txn. Writes are restricted to the root segment (an
// ad-hoc transaction's class is its write segment's) and follow Protocol
// B's MVTO admission check; a rejected write aborts the transaction.
func (t *updateTxn) Write(g schema.GranuleID, value []byte) error {
	e := t.eng
	if err := e.closedErr(); err != nil {
		return err
	}
	t.mu.Lock()
	if t.done {
		err := doneErr(t.deadErr)
		t.mu.Unlock()
		return err
	}
	e.ctr.Writes.Add(1)
	if !e.part.MayWrite(t.class, g.Segment) {
		t.mu.Unlock()
		return t.fail(cc.ReasonClassViolation,
			fmt.Errorf("class %d (%q) may not write segment %d", t.class, e.part.Class(t.class).Name, g.Segment))
	}
	if _, ok := t.writes[g]; ok {
		e.store.UpdatePending(g, t.init, value)
		t.writes[g] = append([]byte(nil), value...)
		t.mu.Unlock()
		return nil
	}
	// An ad-hoc transaction can be rejected here too: an update that
	// finished before the drain may have installed a later version.
	if err := e.store.InstallChecked(g, t.init, value); err != nil {
		t.mu.Unlock()
		e.ctr.RejectedWrites.Add(1)
		return t.fail(cc.ReasonWriteRejected, err)
	}
	if t.writes == nil {
		t.writes = make(map[schema.GranuleID][]byte)
	}
	t.writes[g] = append([]byte(nil), value...)
	e.rec.RecordWrite(t.init, g, t.init)
	t.mu.Unlock()
	return nil
}

// Commit implements cc.Txn. Version flips precede the activity-table
// commit: once the table shows this transaction resolved, every Protocol A
// threshold that admits its versions must find them committed in the store
// (the mutexes on both structures give the necessary happens-before).
//
// With durability enabled, this is the one place anything reaches the
// WAL: one Write record per granule in the write set, carrying its final
// value, then the commit marker, all enqueued *before* the version flips,
// still under t.mu and the gate share. A dependent transaction can only
// observe this transaction's versions after the flip, so its own marker
// is enqueued — and therefore flushed — after this one, which is the
// order recovery needs (DESIGN.md §10.3). The wait for the marker's
// flush batch happens last, after every in-memory release (gate hold,
// registry, wall poll), so a quiescing snapshot or another committer is
// never blocked behind this transaction's fsync. The flip-before-durable
// order does let a read-only transaction observe data whose commit is
// later lost in a crash — the accepted read-side anomaly DESIGN.md §10.3
// documents.
func (t *updateTxn) Commit() error {
	e := t.eng
	t.mu.Lock()
	if t.done {
		err := doneErr(t.deadErr)
		t.mu.Unlock()
		return err
	}
	t.done = true
	var wait func() error
	if e.dur != nil && len(t.writes) > 0 {
		// An append that fails (closed or poisoned log) fails the marker
		// behind it the same way, so its error surfaces through wait.
		rec := wal.Record{Kind: wal.KindWrite, Txn: t.init}
		for g, v := range t.writes {
			rec.Seg, rec.Key, rec.Value = g.Segment, g.Key, v
			e.dur.log.Append(&rec)
		}
		wait = e.dur.log.Commit(&wal.Record{Kind: wal.KindCommit, Txn: t.init})
	}
	for g := range t.writes {
		e.store.Commit(g, t.init)
	}
	at := e.act.FinishTxn(int(t.class), t.init, e.clock, false)
	t.mu.Unlock()
	e.live.unregister(t.init)
	e.txns[t.class].commits.Inc()
	e.rec.RecordCommit(t.init, at)
	e.pollWalls()
	e.gate.exit(t.class, t.held)
	e.maybeGC()
	if wait != nil {
		if err := wait(); err != nil {
			return e.commitDurabilityErr(t.init, err)
		}
	}
	return nil
}

// Abort implements cc.Txn.
func (t *updateTxn) Abort() error {
	t.abort()
	return nil
}

func (t *updateTxn) abort() { t.finishAbort(nil, false) }

// finishAbort moves the transaction to aborted, releasing its pending
// versions, activity entry and admission gate. sticky (may be nil) becomes
// the error subsequent operations return; reaped counts the abort in
// Stats().ReapedTxns. It reports whether this call performed the abort
// (false if the transaction already finished).
func (t *updateTxn) finishAbort(sticky error, reaped bool) bool {
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return false
	}
	t.done = true
	t.deadErr = sticky
	close(t.cancel)
	e := t.eng
	for g := range t.writes {
		e.store.Abort(g, t.init)
	}
	at := e.act.FinishTxn(int(t.class), t.init, e.clock, true)
	t.mu.Unlock()
	e.live.unregister(t.init)
	e.gate.exit(t.class, t.held)
	e.txns[t.class].aborts.Inc()
	if reaped {
		e.ctr.ReapedTxns.Add(1)
		e.ring.Record(obs.KindReap, int32(t.class), int64(t.init), 0, 0)
	}
	e.rec.RecordAbort(t.init, at)
	e.pollWalls()
	return true
}

// expiry implements liveTxn.
func (t *updateTxn) expiry() time.Time { return t.deadline }

// reap implements liveTxn: the reaper force-aborts the transaction,
// releasing its pending versions, activity entry and admission gate — an
// ad-hoc transaction's drained conflict set included — so walls, GC and
// the Begins waiting on the gate can progress again.
func (t *updateTxn) reap() bool {
	return t.finishAbort(&cc.AbortError{Reason: cc.ReasonTimedOut,
		Err: fmt.Errorf("transaction %d force-aborted by the reaper after exceeding its deadline", t.init)}, true)
}
