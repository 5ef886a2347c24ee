package client

// The remote transaction handle.

import (
	"fmt"

	"hdd"
	"hdd/internal/cc"
	"hdd/internal/wire"
)

// Txn is a transaction open on the server. It shares a multiplexed
// connection with every other transaction begun on it, so dozens of
// concurrent Txns ride a handful of sockets. It implements hdd.Txn with
// the embedded API's semantics: abort errors satisfy hdd.IsAbort,
// operations after Commit/Abort fail, and the value returned by Read is
// owned by the caller.
//
// Like embedded transactions, a Txn is not safe for concurrent use.
type Txn struct {
	mc    *mconn // the connection whose server session owns the transaction
	id    uint64
	class hdd.ClassID
	done  bool
}

var _ hdd.Txn = (*Txn)(nil)

// ID returns the server-issued transaction id (its initiation instant on
// the server's logical clock).
func (t *Txn) ID() hdd.Time { return hdd.Time(t.id) }

// Class returns the transaction's update class, or hdd.NoClass when
// read-only.
func (t *Txn) Class() hdd.ClassID { return t.class }

// Read returns the value of g visible to this transaction, or (nil, nil)
// if the granule does not exist at the visible instant. The caller owns the
// value, but it shares a per-connection chunk with other reads: retaining
// it keeps that chunk (≤ 8 KiB, see the package doc) alive, as an
// embedded hdd.Txn's Read keeps its per-transaction chunk alive.
func (t *Txn) Read(g hdd.GranuleID) ([]byte, error) {
	if t.done {
		return nil, cc.ErrTxnDone
	}
	resp, err := t.op(&wire.Request{Op: wire.OpRead, Txn: t.id,
		Seg: int32(g.Segment), Key: g.Key})
	if err != nil {
		return nil, err
	}
	if !resp.Found {
		return nil, nil
	}
	if resp.Value == nil {
		return []byte{}, nil
	}
	return resp.Value, nil
}

// Write installs a new value for g in the transaction. The client copies
// value into the request frame; the caller may reuse the slice.
func (t *Txn) Write(g hdd.GranuleID, value []byte) error {
	if t.done {
		return cc.ErrTxnDone
	}
	if len(value) > wire.MaxValue {
		return fmt.Errorf("client: value of %d bytes exceeds MaxValue (%d)", len(value), wire.MaxValue)
	}
	_, err := t.op(&wire.Request{Op: wire.OpWrite, Txn: t.id,
		Seg: int32(g.Segment), Key: g.Key, Value: value})
	return err
}

// Commit commits the transaction on the server.
func (t *Txn) Commit() error { return t.finish(wire.OpCommit) }

// Abort aborts the transaction on the server. Aborting a finished
// transaction is a no-op, as with the embedded engine.
func (t *Txn) Abort() error {
	if t.done {
		return nil
	}
	return t.finish(wire.OpAbort)
}

// op runs one mid-transaction round-trip. A transport failure finishes
// the transaction locally: the teardown of the connection's server session
// force-aborts the remote side.
func (t *Txn) op(req *wire.Request) (wire.Response, error) {
	resp, err := t.mc.roundTrip(req)
	if err != nil {
		t.done = true
		return wire.Response{}, err
	}
	return resp, resp.Err()
}

// finish sends Commit or Abort, after which the transaction is done
// whatever the engine answered.
func (t *Txn) finish(op wire.Op) error {
	if t.done {
		return cc.ErrTxnDone
	}
	resp, err := t.mc.roundTrip(&wire.Request{Op: op, Txn: t.id})
	t.done = true
	if err != nil {
		return err
	}
	return resp.Err()
}
