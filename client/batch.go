package client

// Batched operations: many reads and/or writes against one transaction in
// a single round trip (wire.OpBatch). For a remote reader the round trip
// is the dominant cost — a batch of 64 reads pays it once instead of 64
// times.

import (
	"fmt"

	"hdd"
	"hdd/internal/cc"
	"hdd/internal/wire"
)

// Batch accumulates operations for Txn.Do. The zero value is ready to
// use; Reset allows reuse across round trips without reallocating.
//
// A Batch is not safe for concurrent use.
type Batch struct {
	ops []wire.BatchOp
}

// Read appends a read of g.
func (b *Batch) Read(g hdd.GranuleID) {
	b.ops = append(b.ops, wire.BatchOp{Seg: int32(g.Segment), Key: g.Key})
}

// Write appends a write of value to g. The slice is aliased until Do
// returns (or the Batch is Reset) — do not mutate it in between.
func (b *Batch) Write(g hdd.GranuleID, value []byte) {
	b.ops = append(b.ops, wire.BatchOp{Write: true, Seg: int32(g.Segment), Key: g.Key, Value: value})
}

// Len reports the accumulated operations.
func (b *Batch) Len() int { return len(b.ops) }

// Reset clears the batch, retaining capacity.
func (b *Batch) Reset() { b.ops = b.ops[:0] }

// BatchResult is one operation's outcome in a completed batch. Writes
// carry no payload; reads follow Txn.Read's semantics — Found=false means
// the granule does not exist at the visible instant, and the value is
// owned by the caller.
type BatchResult struct {
	Found bool
	Value []byte
}

// Do executes the batch against the transaction: every operation in
// declaration order, one round trip. The first failing operation aborts
// the batch with its error (typed exactly as the single-op API would type
// it, message prefixed with the failing index); operations before it have
// been applied, exactly as if sent individually.
func (t *Txn) Do(b *Batch) ([]BatchResult, error) {
	if t.done {
		return nil, cc.ErrTxnDone
	}
	if len(b.ops) == 0 {
		return nil, nil
	}
	for i := range b.ops {
		if b.ops[i].Write && len(b.ops[i].Value) > wire.MaxValue {
			return nil, fmt.Errorf("client: batch op %d: value of %d bytes exceeds MaxValue (%d)",
				i, len(b.ops[i].Value), wire.MaxValue)
		}
	}
	resp, err := t.op(&wire.Request{Op: wire.OpBatch, Txn: t.id, Batch: b.ops})
	if err != nil {
		return nil, err
	}
	if len(resp.Batch) != len(b.ops) {
		return nil, fmt.Errorf("client: batch answered %d results for %d ops", len(resp.Batch), len(b.ops))
	}
	out := make([]BatchResult, len(resp.Batch))
	for i := range resp.Batch {
		r := &resp.Batch[i]
		if r.Write {
			continue
		}
		out[i] = BatchResult{Found: r.Found, Value: r.Value}
		if r.Found && out[i].Value == nil {
			out[i].Value = []byte{}
		}
	}
	return out, nil
}
