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
// outside its root segment, Protocol B inside it (§4.2).
//
// The mutex exists for the reaper: the owning client drives Read/Write/
// Commit/Abort from one goroutine, but the background reaper (and a Close
// racing a blocked read) may force-abort the transaction from another.
// Every state transition and every store mutation happens under mu, so a
// force-abort either observes an installed pending version (and removes
// it) or excludes the install entirely — no version can leak past the
// abort and pin the activity tables forever.
//
// An updateTxn is 184 bytes, in the 192 B size class, and its read chunk
// is 256 B: neither is a class the store's long-lived objects use (48 B
// chains, 64 B values, 96 B and 160 B one- and two-version headers).
// Short-lived objects sharing those classes leave their spans half empty
// once they are freed: at 96 B this struct measured +8 % on embedded_mem's
// mem_mb (results/issue36/README.md). Check a change with unsafe.Sizeof.
type updateTxn struct {
	eng      *Engine
	init     vclock.Time
	class    schema.ClassID
	deadline time.Time // zero = no deadline

	mu   sync.Mutex
	done bool
	// deadErr is the sticky error set by a force-abort (reaper, deadline,
	// shutdown); subsequent operations return it so the client learns the
	// transaction was killed rather than finished.
	deadErr error
	// cancel is made by the first Protocol B read that must wait, under
	// mu after the done check, and closed by a force-abort to wake it;
	// nil while no read has waited.
	cancel chan struct{}
	// writes is the write set: one entry per granule with an installed
	// pending version, in first-write order, holding its latest value.
	// It starts in first, so a one-granule write set allocates nothing;
	// index finds an entry once the set outgrows a short scan.
	writes []writeEntry
	index  map[schema.GranuleID]int
	first  [1]writeEntry
	// chunk is where Read carves its copies from (readChunk).
	chunk readChunk
}

// writeEntry is one granule of an update transaction's write set and the
// value its pending version holds.
type writeEntry struct {
	g     schema.GranuleID
	value []byte
}

// indexFrom is the write-set size from which updateTxn keeps an index
// map: below it a linear scan is cheaper than hashing.
const indexFrom = 8

// pending returns the index of g's entry in the write set, or -1.
func (t *updateTxn) pending(g schema.GranuleID) int {
	if t.index != nil {
		if i, ok := t.index[g]; ok {
			return i
		}
		return -1
	}
	for i := range t.writes {
		if t.writes[i].g == g {
			return i
		}
	}
	return -1
}

// addWrite appends g to the write set, indexing it once the set is large.
func (t *updateTxn) addWrite(g schema.GranuleID, value []byte) {
	if t.writes == nil {
		t.writes = t.first[:0]
	}
	t.writes = append(t.writes, writeEntry{g, value})
	switch n := len(t.writes); {
	case n > indexFrom:
		t.index[g] = n - 1
	case n == indexFrom:
		t.index = make(map[schema.GranuleID]int, 2*indexFrom)
		for i, w := range t.writes {
			t.index[w.g] = i
		}
	}
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

// readChunk is where a transaction's Read copies are carved from: one
// allocation serves several reads, and it is sized into a class the
// store's long-lived objects do not use (48 B chains, 64 B values, 96 B
// one-version headers), so short-lived copies no longer pin half-empty
// spans of those classes. A copy keeps its whole chunk alive.
type readChunk []byte

const (
	// readChunkSize and maxCarved: values up to maxCarved bytes are
	// carved from a readChunkSize chunk; larger ones are copied alone.
	readChunkSize = 256
	maxCarved     = 128
)

// copyOut is Read's defensive copy of a ReadShared result: the public
// boundary never hands callers engine-owned memory. The copy is capped at
// its length, so a caller's append reallocates instead of writing over
// the next copy in the chunk. nil stays nil (no such granule); an empty
// value copies to a non-nil empty slice.
func (c *readChunk) copyOut(val []byte, err error) ([]byte, error) {
	if val == nil || err != nil {
		return nil, err
	}
	if len(val) == 0 {
		return []byte{}, nil
	}
	if len(val) > maxCarved {
		return append([]byte(nil), val...), nil
	}
	if cap(*c)-len(*c) < len(val) {
		*c = make([]byte, 0, readChunkSize)
	}
	off := len(*c)
	*c = append(*c, val...)
	return (*c)[off:len(*c):len(*c)], nil
}

// Read implements cc.Txn. The copy is carved from the transaction's read
// chunk, so keeping it keeps that chunk alive (readChunk).
func (t *updateTxn) Read(g schema.GranuleID) ([]byte, error) { return t.chunk.copyOut(t.ReadShared(g)) }

// ReadShared implements cc.SharedReader. Reads in the root segment follow
// Protocol B (registered, may wait) and reads in higher segments follow
// Protocol A (non-blocking, trace-free — and wait-free all the way into the
// store, which serves them from the published chain with no locks and no
// copies). A blocked Protocol B read wakes on the transaction deadline
// (aborting with cc.ReasonTimedOut) and on engine shutdown (returning
// cc.ErrEngineClosed). The returned slice aliases immutable engine-owned
// memory.
func (t *updateTxn) ReadShared(g schema.GranuleID) ([]byte, error) {
	val, _, err := t.read(g, true)
	return val, err
}

// TryReadShared is ReadShared for a caller that must not wait: a Protocol
// B read that would wait behind a pending version reports ok=false having
// registered nothing. Protocol A and own-write reads always complete.
func (t *updateTxn) TryReadShared(g schema.GranuleID) (val []byte, ok bool, err error) {
	return t.read(g, false)
}

// read is ReadShared, or with block unset TryReadShared.
func (t *updateTxn) read(g schema.GranuleID, block bool) ([]byte, bool, error) {
	e := t.eng
	if err := e.closedErr(); err != nil {
		return nil, true, err
	}
	t.mu.Lock()
	if t.done {
		err := doneErr(t.deadErr)
		t.mu.Unlock()
		return nil, true, err
	}
	if i := t.pending(g); i >= 0 {
		// Own-write slices are immutable too: Write swaps in a fresh copy
		// rather than editing in place, so sharing v is safe.
		v := t.writes[i].value
		t.mu.Unlock()
		e.reads[readOwn].Inc()
		e.rec.RecordRead(t.init, g, t.init, true)
		return v, true, nil
	}
	t.mu.Unlock()
	switch {
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
					return nil, true, t.fail(cc.ReasonReadRejected,
						fmt.Errorf("basic-TO root read of %v at %d behind prewrite at %d", g, t.init, vts))
				}
				if !block {
					return nil, false, nil
				}
				t.mu.Lock()
				if t.done {
					err := doneErr(t.deadErr)
					t.mu.Unlock()
					return nil, true, err
				}
				if t.cancel == nil {
					t.cancel = make(chan struct{})
				}
				cancel := t.cancel
				t.mu.Unlock()
				e.ctr.BlockedReads.Add(1)
				if err := t.awaitResolve(g, wait, cancel); err != nil {
					return nil, true, err
				}
				// The reaper may have force-aborted the transaction while
				// the read was blocked; re-check before touching the
				// store again.
				t.mu.Lock()
				if t.done {
					err := doneErr(t.deadErr)
					t.mu.Unlock()
					return nil, true, err
				}
				t.mu.Unlock()
				continue
			}
			if e.rootProto == RootBasicTO && ok && vts > t.init {
				e.ctr.RejectedReads.Add(1)
				return nil, true, t.fail(cc.ReasonReadRejected,
					fmt.Errorf("basic-TO root read of %v at %d after write at %d", g, t.init, vts))
			}
			e.reads[readB].Inc()
			e.rec.RecordRead(t.init, g, vts, ok)
			return val, true, nil
		}
	case e.part.MayRead(t.class, g.Segment):
		// Protocol A: the segment is higher in the DHG; serve the latest
		// committed version below the activity-link threshold. Nothing is
		// registered and the read cannot block (§4.2).
		bound := e.links.A(t.class, schema.ClassID(g.Segment), t.init)
		val, vts, ok := e.store.ReadCommittedBefore(g, bound)
		e.reads[readA].Inc()
		e.rec.RecordRead(t.init, g, vts, ok)
		return val, true, nil
	default:
		return nil, true, t.fail(cc.ReasonClassViolation,
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
// the transaction (closing cancel), or the engine shuts down. A nil return
// means the version resolved and the read should retry.
func (t *updateTxn) awaitResolve(g schema.GranuleID, resolved, cancel <-chan struct{}) error {
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
	case <-cancel:
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

// Write implements cc.Txn. Writes are restricted to the root segment and
// follow Protocol B's MVTO admission check; a rejected write aborts the transaction.
func (t *updateTxn) Write(g schema.GranuleID, value []byte) error {
	e := t.eng
	if err := e.closedErr(); err != nil {
		return err
	}
	// Commit logs the value as one record: a longer one would fail the
	// log. Refused before anything is installed; the transaction stays
	// open.
	if e.dur != nil && len(value) > wal.MaxValue {
		return fmt.Errorf("core: value of %d bytes exceeds the %d one log record carries", len(value), wal.MaxValue)
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
	// The one copy: store and write set share it. Never nil, even when
	// empty: a nil value reads as a granule that does not exist.
	value = append(make([]byte, 0, len(value)), value...)
	if i := t.pending(g); i >= 0 {
		e.store.UpdatePending(g, t.init, value)
		t.writes[i].value = value
		t.mu.Unlock()
		return nil
	}
	if err := e.store.InstallChecked(g, t.init, value); err != nil {
		t.mu.Unlock()
		e.ctr.RejectedWrites.Add(1)
		return t.fail(cc.ReasonWriteRejected, err)
	}
	t.addWrite(g, value)
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
// WAL: one Write record per granule in the write set, in first-write
// order and carrying its final value, then the commit marker, all enqueued *before* the version flips,
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
	wait, err := t.CommitAsync()
	if wait != nil {
		return wait()
	}
	return err
}

// CommitAsync is Commit up to the wait for durability: the log append and
// the version flips are done when it returns, and the returned wait (nil
// without a log or a write) blocks until the commit is durable.
func (t *updateTxn) CommitAsync() (wait func() error, err error) {
	e := t.eng
	t.mu.Lock()
	if t.done {
		err := doneErr(t.deadErr)
		t.mu.Unlock()
		return nil, err
	}
	t.done = true
	if e.dur != nil && len(t.writes) > 0 {
		// An append that fails (closed or poisoned log) fails the marker
		// behind it the same way, so its error surfaces through wait.
		rec := wal.Record{Kind: wal.KindWrite, Txn: t.init}
		for _, w := range t.writes {
			rec.Seg, rec.Key, rec.Value = w.g.Segment, w.g.Key, w.value
			e.dur.log.Append(&rec)
		}
		logWait := e.dur.log.Commit(&wal.Record{Kind: wal.KindCommit, Txn: t.init})
		wait = func() error { return e.commitDurabilityErr(t.init, logWait()) }
	}
	for _, w := range t.writes {
		e.store.Commit(w.g, t.init)
	}
	at := e.act.FinishTxn(int(t.class), t.init, e.clock, false)
	t.mu.Unlock()
	e.live.unregister(t.init)
	e.txns[t.class].commits.Inc()
	e.rec.RecordCommit(t.init, at)
	e.pollWalls()
	e.gate[t.class].RUnlock()
	e.maybeGC()
	return wait, nil
}

// Abort implements cc.Txn.
func (t *updateTxn) Abort() error {
	t.abort()
	return nil
}

func (t *updateTxn) abort() { t.finishAbort(nil, false) }

// finishAbort moves the transaction to aborted, releasing its pending
// versions, activity entry and class gate share. sticky (may be nil)
// becomes the error subsequent operations return; reaped counts the abort in
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
	if t.cancel != nil {
		close(t.cancel)
	}
	e := t.eng
	for _, w := range t.writes {
		e.store.Abort(w.g, t.init)
	}
	at := e.act.FinishTxn(int(t.class), t.init, e.clock, true)
	t.mu.Unlock()
	if reaped { // counted before the gate share lets a waiting checkpoint in
		e.ctr.ReapedTxns.Add(1)
		e.ring.Record(obs.KindReap, int32(t.class), int64(t.init), 0, 0)
	}
	e.live.unregister(t.init)
	e.gate[t.class].RUnlock()
	e.txns[t.class].aborts.Inc()
	e.rec.RecordAbort(t.init, at)
	e.pollWalls()
	return true
}

// expiry implements liveTxn.
func (t *updateTxn) expiry() time.Time { return t.deadline }

// reap implements liveTxn: the reaper force-aborts the transaction,
// releasing its pending versions, activity entry and class gate share, so
// walls, GC and a checkpoint waiting on the gate can progress again.
func (t *updateTxn) reap() bool {
	return t.finishAbort(&cc.AbortError{Reason: cc.ReasonTimedOut,
		Err: fmt.Errorf("transaction %d force-aborted by the reaper after exceeding its deadline", t.init)}, true)
}
