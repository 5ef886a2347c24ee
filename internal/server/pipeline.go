package server

// The pipelined session path (DESIGN.md §15). The session goroutine
// decodes frames and runs inline what the engine can do without waiting,
// so it never waits on anything a peer must still send: every operation of
// a read-only transaction of an engine declaring cc.CapWaitFreeReadOnly
// (Theorem 2), and each step of an update transaction offering the entry
// points below that need not wait. HDD's wait for a class gate a
// checkpoint holds or awaits (begin), a pending version (Protocol B read)
// and the fsync (commit; only this wait moves to a goroutine). Inline
// responses are flushed once the read buffer holds no further complete
// frame: a burst of pipelined reads costs one read(2), no goroutine
// hand-off and one write(2). The rest leaves the reader: a per-transaction
// FIFO drained by at most one goroutine at a time, or a goroutine of its
// own for requests that name no transaction.
//
// Ordering contract: operations addressing the same transaction execute
// (and are answered) in arrival order. An operation goes inline only when
// its transaction's FIFO is empty and idle, and only the session goroutine
// enqueues, so the rule holds across both paths. Everything else may be
// answered out of order; the tag is the client's correlation handle.
//
// Backpressure: at most MaxPipeline handler requests in flight per session
// (sem); past that the reader stops reading. Responses are bounded by the
// frame writer's buffer, not the request count: a peer that stops reading
// blocks its senders in write until WriteTimeout, which fails the writer,
// closes the connection and ends the session.

import (
	"bytes"
	"time"

	"hdd/internal/cc"
	"hdd/internal/schema"
	"hdd/internal/wire"
)

// pipeWriteBuf sizes the session's socket write buffer: large enough
// that one flush carries the responses to a deep burst of reads.
const pipeWriteBuf = 64 << 10

// The update-transaction entry points that never wait (*core.Engine's):
// each completes or reports ok=false having done nothing.
type (
	tryBeginner interface {
		TryBegin(class schema.ClassID) (t cc.Txn, ok bool, err error)
	}
	inlineTxn interface {
		TryReadShared(g schema.GranuleID) (val []byte, ok bool, err error)
		CommitAsync() (wait func() error, err error)
	}
)

// sessTxn is one open transaction plus its FIFO of pending requests. The
// drain goroutine (at most one per transaction, spawned lazily) executes
// them in arrival order.
type sessTxn struct {
	t cc.Txn
	// waitFree: no read, commit or abort of t can block (set at begin,
	// from the engine's declared capability, never changed).
	waitFree bool
	// upd is t when it offers the update entry points that never wait.
	upd inlineTxn

	// q and running are guarded by the owning session's tmu (the queues
	// are touched only at enqueue/dequeue, never during engine calls, so
	// one session-wide mutex is cheaper than one per transaction).
	q       []*wire.Request
	running bool
}

// dispatch routes one decoded request: inline when it cannot wait,
// otherwise through admission (blocking when MaxPipeline are in flight)
// into its transaction's FIFO or a goroutine of its own.
func (s *session) dispatch(req *wire.Request) {
	switch req.Op {
	case wire.OpRead, wire.OpWrite, wire.OpCommit, wire.OpAbort, wire.OpBatch:
		s.tmu.Lock()
		st, ok := s.txns[req.Txn]
		if ok && !st.running && len(st.q) == 0 {
			s.tmu.Unlock()
			if s.runInline(req, st) {
				return
			}
			// It would wait; only this goroutine enqueues, so the FIFO is idle.
			s.tmu.Lock()
		}
		if !s.admit(false) { // full: wait for a slot without holding tmu
			s.tmu.Unlock()
			s.admit(true)
			s.tmu.Lock()
			st, ok = s.txns[req.Txn]
		}
		if !ok {
			s.tmu.Unlock()
			s.complete(req.Op, req.Tag, unknownTxn(req.Txn))
			return
		}
		st.q = append(st.q, clone(req))
		if !st.running {
			st.running = true
			go s.drainTxn(st)
		}
		s.tmu.Unlock()
	case wire.OpBegin, wire.OpBeginReadOnly, wire.OpBeginReadOnlyFor:
		if s.runInline(req, nil) {
			return
		}
		fallthrough
	default:
		s.admit(true)
		go s.run(clone(req), nil)
	}
}

// clone copies a request for a handler to own: the decoder aliases write
// values in the read buffer, which the next frame overwrites.
func clone(req *wire.Request) *wire.Request {
	r := *req
	r.Value = bytes.Clone(r.Value)
	for i := range r.Batch {
		r.Batch[i].Value = bytes.Clone(r.Batch[i].Value)
	}
	return &r
}

// writes reports whether a request carries a write: how one fails on a
// read-only transaction is the engine's business, so it takes the FIFO.
func writes(req *wire.Request) bool {
	for i := range req.Batch {
		if req.Batch[i].Write {
			return true
		}
	}
	return req.Op == wire.OpWrite
}

// admit takes an in-flight slot. With wait unset it reports false when
// MaxPipeline are taken; with wait set it waits for one, flushing first:
// the handlers holding the slots may be blocked on something the peer will
// only do once it has seen a response this goroutine still buffers.
func (s *session) admit(wait bool) bool {
	select {
	case s.sem <- struct{}{}:
	default:
		if !wait {
			return false
		}
		_ = s.flushInline() // a failed writer ends the session at its next read
		s.sem <- struct{}{}
	}
	s.inflight.Add(1)
	s.srv.pipelineDepth.Add(1)
	return true
}

// runInline executes req (of st, nil for a begin) on the session goroutine
// unless it would wait, and reports whether it did; serve flushes the
// response. A commit's fsync wait answers from a goroutine with a slot.
func (s *session) runInline(req *wire.Request, st *sessTxn) bool {
	start := time.Now()
	var resp wire.Response
	switch {
	case req.Op == wire.OpBegin:
		if s.srv.tryBegin == nil || s.srv.isDraining() {
			return false
		}
		t, ok, err := s.srv.tryBegin.TryBegin(schema.ClassID(req.Class))
		if !ok {
			return false
		}
		resp = s.beginResponse(t, err, false)
	case st == nil: // a read-only begin
		if !s.srv.waitFreeRO {
			return false
		}
		resp = s.handle(req, nil)
	case st.waitFree && !writes(req), st.upd != nil && (req.Op == wire.OpWrite || req.Op == wire.OpAbort):
		resp = s.handle(req, st.t)
	case st.upd == nil || req.Op == wire.OpBatch:
		return false
	case req.Op == wire.OpRead:
		val, ok, err := st.upd.TryReadShared(schema.GranuleID{Segment: schema.SegmentID(req.Seg), Key: req.Key})
		if !ok {
			return false
		}
		resp = readResponse(val, err)
	default: // OpCommit
		wait, err := st.upd.CommitAsync()
		s.dropTxn(req.Txn)
		if wait != nil {
			s.srv.inlineRequests.Inc()
			s.admit(true)
			tag := req.Tag
			go func() {
				resp := errResponse(wait())
				s.observe(wire.OpCommit, start)
				s.complete(wire.OpCommit, tag, resp)
			}()
			return true
		}
		resp = errResponse(err)
	}
	s.observe(req.Op, start)
	resp.Tag = req.Tag
	s.wbuf = wire.AppendResponse2(s.wbuf[:0], req.Op, &resp)
	s.srv.inlineRequests.Inc()
	// A failed writer has closed the connection: the next read ends serve.
	if s.fw.Append(s.wbuf) == nil {
		s.unflushed = true
	}
	return true
}

// flushInline flushes the responses the session goroutine has buffered.
func (s *session) flushInline() error {
	if !s.unflushed {
		return nil
	}
	s.unflushed = false
	return s.fw.Flush()
}

// drainTxn executes one transaction's queued requests in order until the
// queue is empty, then retires. The serial section here is also what
// keeps zero-copy reads sound: a shared slice returned by ReadShared is
// encoded into the response frame (in complete) before the next request
// can advance the same transaction.
func (s *session) drainTxn(st *sessTxn) {
	for {
		s.tmu.Lock()
		if len(st.q) == 0 {
			st.running = false
			s.tmu.Unlock()
			return
		}
		req := st.q[0]
		st.q = st.q[1:]
		s.tmu.Unlock()
		s.run(req, st.t)
	}
}

// run executes one admitted request and sends its response.
func (s *session) run(req *wire.Request, t cc.Txn) {
	start := time.Now()
	resp := s.handle(req, t)
	s.observe(req.Op, start)
	s.complete(req.Op, req.Tag, resp)
}

// complete sends an admitted request's response, tag echoed. With other
// requests in flight the send yields before it flushes, so handlers
// finishing together share one socket write. The slot is released only
// after the frame is sent, so teardown's inflight.Wait() loses nothing. A
// send error has closed the connection, which ends serve.
func (s *session) complete(op wire.Op, tag uint64, resp wire.Response) {
	resp.Tag = tag
	bp := wire.GetBuffer()
	*bp = wire.AppendResponse2((*bp)[:0], op, &resp)
	_ = s.fw.Send(*bp, len(s.sem) > 1)
	wire.PutBuffer(bp)
	s.srv.pipelineDepth.Add(-1)
	s.inflight.Done()
	<-s.sem
}
