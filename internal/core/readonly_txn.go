package core

import (
	"fmt"
	"sync"
	"time"

	"hdd/internal/cc"
	"hdd/internal/obs"
	"hdd/internal/schema"
	"hdd/internal/vclock"
)

// offPath is the bound of a segment a critical-path reader may not read.
const offPath vclock.Time = -1

// readOnlyTxn is a read-only transaction. Every read is served the latest
// committed version below a per-segment bound fixed at begin, so none
// blocks or registers:
//
//   - under Protocol C (§5.2) the bounds are the components of the
//     released time wall the transaction acquired (the wall's own slice);
//   - on a critical path (§5, Figure 8) they are the activity-link
//     thresholds of a fictitious class just below base, and segments off
//     the path hold offPath.
//
// A readOnlyTxn is 136 bytes, in the 144 B size class, which no
// long-lived store object shares (see updateTxn).
type readOnlyTxn struct {
	eng    *Engine
	init   vclock.Time
	bounds []vclock.Time  // indexed by segment
	base   schema.ClassID // schema.NoClass under Protocol C
	// floor is the GC floor the bounds pinned at begin; finish releases
	// it.
	floor    vclock.Time
	deadline time.Time

	mu      sync.Mutex
	done    bool
	deadErr error
	// chunk is where Read carves its copies from (readChunk).
	chunk readChunk
}

var _ cc.Txn = (*readOnlyTxn)(nil)
var _ cc.SharedReader = (*readOnlyTxn)(nil)
var _ liveTxn = (*readOnlyTxn)(nil)

// ID implements cc.Txn.
func (t *readOnlyTxn) ID() cc.TxnID { return t.init }

// Class implements cc.Txn.
func (t *readOnlyTxn) Class() schema.ClassID { return schema.NoClass }

// Read implements cc.Txn. The copy is carved from the transaction's read
// chunk, so keeping it keeps that chunk alive (readChunk).
func (t *readOnlyTxn) Read(g schema.GranuleID) ([]byte, error) {
	return t.chunk.copyOut(t.ReadShared(g))
}

// ReadShared implements cc.SharedReader: the latest committed version
// below the granule's segment bound, wait-free into the store's published
// chain. A segment the partition does not have, or one off the critical
// path, is an error that leaves the transaction open. The returned slice
// aliases immutable engine-owned memory.
func (t *readOnlyTxn) ReadShared(g schema.GranuleID) ([]byte, error) {
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
	t.mu.Unlock()
	if g.Segment < 0 || int(g.Segment) >= len(t.bounds) {
		return nil, fmt.Errorf("core: unknown segment %d", g.Segment)
	}
	bound := t.bounds[g.Segment]
	if bound == offPath {
		return nil, fmt.Errorf("core: segment %d is not on the critical path above class %d", g.Segment, t.base)
	}
	if t.base == schema.NoClass {
		e.reads[readC].Inc()
	} else {
		e.reads[readAPath].Inc()
	}
	val, vts, ok := e.store.ReadCommittedBefore(g, bound)
	e.rec.RecordRead(t.init, g, vts, ok)
	return val, nil
}

// Write implements cc.Txn; read-only transactions cannot write.
func (t *readOnlyTxn) Write(schema.GranuleID, []byte) error {
	return fmt.Errorf("core: write in a read-only transaction")
}

// Commit implements cc.Txn.
func (t *readOnlyTxn) Commit() error {
	_, err := t.finish(false, nil)
	return err
}

// Abort implements cc.Txn.
func (t *readOnlyTxn) Abort() error {
	t.finish(true, nil)
	return nil
}

// expiry implements liveTxn.
func (t *readOnlyTxn) expiry() time.Time { return t.deadline }

// reap implements liveTxn: an abandoned read-only transaction pins the GC
// floor its bounds acquired; reaping releases it.
func (t *readOnlyTxn) reap() bool {
	ok, _ := t.finish(true, &cc.AbortError{Reason: cc.ReasonTimedOut,
		Err: fmt.Errorf("read-only transaction %d force-aborted by the reaper after exceeding its deadline", t.init)})
	return ok
}

// finish commits or aborts the transaction and releases its GC floor; a
// non-nil sticky error marks a reaper force-abort and becomes the error
// later operations return. On a transaction that already finished it
// reports false and that error.
func (t *readOnlyTxn) finish(aborted bool, sticky error) (bool, error) {
	t.mu.Lock()
	if t.done {
		err := doneErr(t.deadErr)
		t.mu.Unlock()
		return false, err
	}
	t.done = true
	t.deadErr = sticky
	t.mu.Unlock()
	e := t.eng
	e.walls.Release(t.floor)
	e.live.unregister(t.init)
	at := e.clock.Tick()
	if !aborted {
		e.roCounts().commits.Inc()
		e.rec.RecordCommit(t.init, at)
		return true, nil
	}
	e.roCounts().aborts.Inc()
	if sticky != nil {
		e.ctr.ReapedTxns.Add(1)
		e.ring.Record(obs.KindReap, obs.NoClass, int64(t.init), 0, 0)
	}
	e.rec.RecordAbort(t.init, at)
	return true, nil
}
