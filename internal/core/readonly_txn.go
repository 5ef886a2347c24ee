package core

import (
	"fmt"
	"sync"
	"time"

	"hdd/internal/alink"
	"hdd/internal/cc"
	"hdd/internal/obs"
	"hdd/internal/schema"
	"hdd/internal/vclock"
)

// readOnlyTxn is a Protocol C transaction pinned to a released time wall.
type readOnlyTxn struct {
	eng      *Engine
	init     vclock.Time
	wall     *alink.TimeWall
	release  func()
	deadline time.Time

	mu      sync.Mutex
	done    bool
	deadErr error
}

var _ cc.Txn = (*readOnlyTxn)(nil)
var _ cc.SharedReader = (*readOnlyTxn)(nil)
var _ liveTxn = (*readOnlyTxn)(nil)

// ID implements cc.Txn.
func (t *readOnlyTxn) ID() cc.TxnID { return t.init }

// Class implements cc.Txn.
func (t *readOnlyTxn) Class() schema.ClassID { return schema.NoClass }

// Read implements cc.Txn: ReadShared plus the defensive copy the public
// boundary owes its callers.
func (t *readOnlyTxn) Read(g schema.GranuleID) ([]byte, error) {
	val, err := t.ReadShared(g)
	if val == nil || err != nil {
		return nil, err
	}
	return append([]byte(nil), val...), nil
}

// ReadShared implements cc.SharedReader: the latest committed version
// below the wall component of the granule's segment. Never blocks, never
// registers — wait-free into the store's published chain. The returned slice
// aliases immutable engine-owned memory.
func (t *readOnlyTxn) ReadShared(g schema.GranuleID) ([]byte, error) {
	e := t.eng
	if err := e.closedErr(); err != nil {
		return nil, err
	}
	t.mu.Lock()
	if t.done {
		err := t.deadErr
		t.mu.Unlock()
		if err != nil {
			return nil, err
		}
		return nil, cc.ErrTxnDone
	}
	t.mu.Unlock()
	e.ctr.Reads.Add(1)
	if o := e.obs; o != nil {
		o.readsC.Inc()
		o.lockfreeC.Inc()
	}
	bound := t.wall.Threshold(g.Segment)
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
	return t.finish(false)
}

// Abort implements cc.Txn.
func (t *readOnlyTxn) Abort() error {
	_ = t.finish(true)
	return nil
}

func (t *readOnlyTxn) finish(aborted bool) error {
	t.mu.Lock()
	if t.done {
		err := t.deadErr
		t.mu.Unlock()
		if aborted {
			return nil
		}
		if err != nil {
			return err
		}
		return cc.ErrTxnDone
	}
	t.done = true
	t.mu.Unlock()
	t.release()
	e := t.eng
	e.live.unregister(t.init)
	at := e.clock.Tick()
	if aborted {
		e.ctr.Aborts.Add(1)
		if o := e.obs; o != nil {
			o.abortRO()
		}
		e.rec.RecordAbort(t.init, at)
	} else {
		e.ctr.Commits.Add(1)
		if o := e.obs; o != nil {
			o.commitRO()
		}
		e.rec.RecordCommit(t.init, at)
	}
	return nil
}

// expiry implements liveTxn.
func (t *readOnlyTxn) expiry() time.Time { return t.deadline }

// reap implements liveTxn: an abandoned read-only transaction holds a wall
// floor that pins garbage collection; reaping releases it.
func (t *readOnlyTxn) reap() bool {
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return false
	}
	t.done = true
	t.deadErr = &cc.AbortError{Reason: cc.ReasonTimedOut,
		Err: fmt.Errorf("read-only transaction %d force-aborted by the reaper after exceeding its deadline", t.init)}
	t.mu.Unlock()
	t.release()
	e := t.eng
	e.live.unregister(t.init)
	at := e.clock.Tick()
	e.ctr.Aborts.Add(1)
	e.ctr.ReapedTxns.Add(1)
	if o := e.obs; o != nil {
		o.abortRO()
		o.reaped(obs.NoClass, t.init)
	}
	e.rec.RecordAbort(t.init, at)
	return true
}

// Wall exposes the wall the transaction reads under, for tests.
func (t *readOnlyTxn) Wall() *alink.TimeWall { return t.wall }

// pathReadOnlyTxn reads along one critical path as a fictitious class below
// base (§5, Figure 8). Its activity-link thresholds are pinned at begin.
type pathReadOnlyTxn struct {
	eng      *Engine
	init     vclock.Time
	base     schema.ClassID
	bounds   map[schema.SegmentID]vclock.Time
	release  func()
	deadline time.Time

	mu      sync.Mutex
	done    bool
	deadErr error
}

var _ cc.Txn = (*pathReadOnlyTxn)(nil)
var _ cc.SharedReader = (*pathReadOnlyTxn)(nil)
var _ liveTxn = (*pathReadOnlyTxn)(nil)

// ID implements cc.Txn.
func (t *pathReadOnlyTxn) ID() cc.TxnID { return t.init }

// Class implements cc.Txn.
func (t *pathReadOnlyTxn) Class() schema.ClassID { return schema.NoClass }

// Read implements cc.Txn: ReadShared plus the defensive copy the public
// boundary owes its callers.
func (t *pathReadOnlyTxn) Read(g schema.GranuleID) ([]byte, error) {
	val, err := t.ReadShared(g)
	if val == nil || err != nil {
		return nil, err
	}
	return append([]byte(nil), val...), nil
}

// ReadShared implements cc.SharedReader with the fictitious-class
// Protocol A threshold pinned at initiation. Wait-free into the store's
// published chain; the returned slice aliases immutable engine-owned memory.
func (t *pathReadOnlyTxn) ReadShared(g schema.GranuleID) ([]byte, error) {
	e := t.eng
	if err := e.closedErr(); err != nil {
		return nil, err
	}
	t.mu.Lock()
	if t.done {
		err := t.deadErr
		t.mu.Unlock()
		if err != nil {
			return nil, err
		}
		return nil, cc.ErrTxnDone
	}
	t.mu.Unlock()
	bound, ok := t.bounds[g.Segment]
	if !ok {
		return nil, fmt.Errorf("core: segment %d is not on the critical path above class %d", g.Segment, t.base)
	}
	e.ctr.Reads.Add(1)
	if o := e.obs; o != nil {
		o.readsAPath.Inc()
		o.lockfreeAPath.Inc()
	}
	val, vts, found := e.store.ReadCommittedBefore(g, bound)
	e.rec.RecordRead(t.init, g, vts, found)
	return val, nil
}

// Write implements cc.Txn; read-only transactions cannot write.
func (t *pathReadOnlyTxn) Write(schema.GranuleID, []byte) error {
	return fmt.Errorf("core: write in a read-only transaction")
}

// Commit implements cc.Txn.
func (t *pathReadOnlyTxn) Commit() error {
	return t.finish(false)
}

// Abort implements cc.Txn.
func (t *pathReadOnlyTxn) Abort() error {
	_ = t.finish(true)
	return nil
}

func (t *pathReadOnlyTxn) finish(aborted bool) error {
	t.mu.Lock()
	if t.done {
		err := t.deadErr
		t.mu.Unlock()
		if aborted {
			return nil
		}
		if err != nil {
			return err
		}
		return cc.ErrTxnDone
	}
	t.done = true
	t.mu.Unlock()
	t.release()
	e := t.eng
	e.live.unregister(t.init)
	at := e.clock.Tick()
	if aborted {
		e.ctr.Aborts.Add(1)
		if o := e.obs; o != nil {
			o.abortRO()
		}
		e.rec.RecordAbort(t.init, at)
	} else {
		e.ctr.Commits.Add(1)
		if o := e.obs; o != nil {
			o.commitRO()
		}
		e.rec.RecordCommit(t.init, at)
	}
	return nil
}

// expiry implements liveTxn.
func (t *pathReadOnlyTxn) expiry() time.Time { return t.deadline }

// reap implements liveTxn: releases the pinned activity-link floor so
// garbage collection can advance past an abandoned path reader.
func (t *pathReadOnlyTxn) reap() bool {
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return false
	}
	t.done = true
	t.deadErr = &cc.AbortError{Reason: cc.ReasonTimedOut,
		Err: fmt.Errorf("path read-only transaction %d force-aborted by the reaper after exceeding its deadline", t.init)}
	t.mu.Unlock()
	t.release()
	e := t.eng
	e.live.unregister(t.init)
	at := e.clock.Tick()
	e.ctr.Aborts.Add(1)
	e.ctr.ReapedTxns.Add(1)
	if o := e.obs; o != nil {
		o.abortRO()
		o.reaped(obs.NoClass, t.init)
	}
	e.rec.RecordAbort(t.init, at)
	return true
}
