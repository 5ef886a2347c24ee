package server

// One session per connection: a goroutine that reads request frames in
// order and pipelines them (pipeline.go). The session owns the
// transactions it began; teardown — for any reason: disconnect, protocol
// error, idle timeout, shutdown — force-aborts whatever is still open so
// an abandoned client can never wedge walls, GC, or a checkpoint waiting
// on its class gate.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hdd/internal/cc"
	"hdd/internal/schema"
	"hdd/internal/wire"
)

// drainPoll is how often a draining session with open transactions wakes
// from a blocked frame read to re-check for force-close.
const drainPoll = 50 * time.Millisecond

type session struct {
	srv  *Server
	conn net.Conn
	br   *bufio.Reader

	// txns maps wire transaction ids to the session's open transactions
	// with their per-transaction request FIFOs, guarded by tmu: the session
	// goroutine and its concurrent handlers share it.
	tmu  sync.Mutex
	txns map[uint64]*sessTxn

	// forced is set by forceClose; the session goroutine observes it after
	// its read is interrupted and exits instead of continuing the drain.
	forced atomic.Bool

	rbuf []byte // reused frame read buffer
	wbuf []byte // reused response encode buffer (session goroutine only)

	// Pipeline state (see pipeline.go).
	fw       *wire.FrameWriter // the socket's write side, shared with handlers
	sem      chan struct{}     // in-flight admission, cap MaxPipeline
	inflight sync.WaitGroup    // admitted requests whose response is not yet sent
	// unflushed: the session goroutine appended inline responses it has
	// not flushed yet. Touched by that goroutine only.
	unflushed bool
}

func newSession(s *Server, conn net.Conn) *session {
	return &session{
		srv:  s,
		conn: conn,
		br:   bufio.NewReader(conn),
		txns: make(map[uint64]*sessTxn),
		fw:   wire.NewFrameWriter(conn, pipeWriteBuf, s.opts.WriteTimeout, s.observeFlush),
		sem:  make(chan struct{}, s.opts.MaxPipeline),
	}
}

// interrupt wakes the session from a blocked frame read so it re-checks
// drain state. Called with srv.mu held.
func (s *session) interrupt() {
	s.conn.SetReadDeadline(time.Now())
}

// forceClose marks the session for teardown and severs the connection;
// the session goroutine then finishes via teardown, force-aborting its
// open transactions. Called with srv.mu held.
func (s *session) forceClose() {
	s.forced.Store(true)
	s.conn.SetReadDeadline(time.Now())
}

// serve is the session goroutine: it decodes frames, executes what cannot
// block itself and hands the rest to per-transaction handlers
// (pipeline.go). The loop runs until the peer hangs up, errs, times out,
// violates the protocol, or the server drains.
func (s *session) serve() {
	defer s.srv.wg.Done()
	defer s.teardown()
	for {
		// While the read buffer holds another complete frame the next
		// read cannot block: keep the responses buffered and the deadline
		// as armed. Otherwise flush the burst before waiting for more.
		if !wire.FrameBuffered(s.br) {
			if s.flushInline() != nil {
				return
			}
			s.setReadDeadline()
		}
		if s.forced.Load() {
			return
		}
		if s.srv.isDraining() && s.txnCount() == 0 && !s.hasInflight() {
			return
		}
		payload, err := wire.ReadFrame(s.br, s.rbuf)
		if err != nil {
			if isTimeout(err) && s.srv.isDraining() && !s.forced.Load() && (s.txnCount() > 0 || s.hasInflight()) {
				// Draining with work in flight: keep waiting for the
				// client to finish its transactions (forceClose breaks
				// the loop when the drain deadline passes).
				continue
			}
			if !errors.Is(err, net.ErrClosed) && !isTimeout(err) && !isEOF(err) {
				s.srv.logf("server: %v: read: %v", s.conn.RemoteAddr(), err)
			}
			return
		}
		s.rbuf = payload[:cap(payload)]
		req, err := wire.DecodeRequestAny(payload)
		if err != nil {
			// Protocol error — a frame of another wire version included:
			// answer once (tag 0) so the peer can log something
			// meaningful, then drop the connection — framing may be lost.
			// Teardown flushes the answer.
			s.wbuf = wire.AppendResponse2(s.wbuf[:0], 0, &wire.Response{Status: wire.StatusError, Message: err.Error()})
			_ = s.fw.Append(s.wbuf) // best effort on a connection about to close
			s.srv.logf("server: %v: %v", s.conn.RemoteAddr(), err)
			return
		}
		s.dispatch(&req)
	}
}

// txnCount reports the session's open transactions.
func (s *session) txnCount() int {
	s.tmu.Lock()
	n := len(s.txns)
	s.tmu.Unlock()
	return n
}

// hasInflight reports whether the session still has admitted requests
// that have not produced a response yet, or responses it has not flushed —
// a draining session must not exit under them (their begins may still
// register transactions).
func (s *session) hasInflight() bool {
	return len(s.sem) > 0 || s.unflushed
}

// setReadDeadline arms the next frame read: the idle timeout normally, a
// short poll while draining so force-close is observed promptly.
func (s *session) setReadDeadline() {
	switch {
	case s.srv.isDraining():
		s.conn.SetReadDeadline(time.Now().Add(drainPoll))
	case s.srv.opts.IdleTimeout > 0:
		s.conn.SetReadDeadline(time.Now().Add(s.srv.opts.IdleTimeout))
	default:
		s.conn.SetReadDeadline(time.Time{})
	}
}

// observe records a request that started at start in the opcode's
// request-latency histogram.
func (s *session) observe(op wire.Op, start time.Time) {
	if h := s.srv.latencyFor(op); h != nil {
		h.Observe(time.Since(start))
	}
}

// handle dispatches one decoded request. t is the transaction a
// transaction-addressed request names (dispatch resolved it), nil for
// requests that name none. It never returns nil.
func (s *session) handle(req *wire.Request, t cc.Txn) wire.Response {
	switch req.Op {
	case wire.OpBegin:
		if s.srv.isDraining() {
			return errResponse(cc.ErrEngineClosed)
		}
		t, err := s.srv.eng.Begin(schema.ClassID(req.Class))
		return s.beginResponse(t, err, false)

	case wire.OpBeginReadOnly:
		if s.srv.isDraining() {
			return errResponse(cc.ErrEngineClosed)
		}
		t, err := s.srv.eng.BeginReadOnly()
		return s.beginResponse(t, err, s.srv.waitFreeRO)

	case wire.OpBeginReadOnlyFor:
		if s.srv.isDraining() {
			return errResponse(cc.ErrEngineClosed)
		}
		if s.srv.scopedRO == nil {
			return errResponse(cc.NotSupported(s.srv.eng.Name(), "BeginReadOnlyFor"))
		}
		segs := make([]schema.SegmentID, len(req.ReadSegs))
		for i, r := range req.ReadSegs {
			segs[i] = schema.SegmentID(r)
		}
		t, err := s.srv.scopedRO.BeginReadOnlyFor(segs...)
		return s.beginResponse(t, err, s.srv.waitFreeRO)

	case wire.OpHello:
		return wire.Response{Status: wire.StatusOK,
			EngineName: s.srv.eng.Name(), Caps: uint64(s.srv.caps)}

	case wire.OpRead, wire.OpWrite, wire.OpCommit, wire.OpAbort, wire.OpBatch:
		return s.handleTxnOp(req, t)

	case wire.OpStats:
		return wire.Response{Status: wire.StatusOK, Stats: s.srv.statEntries()}
	}
	return wire.Response{Status: wire.StatusError,
		Message: fmt.Sprintf("server: unhandled opcode %v", req.Op)}
}

// handleTxnOp executes one operation on an open transaction.
func (s *session) handleTxnOp(req *wire.Request, t cc.Txn) wire.Response {
	var err error
	switch req.Op {
	case wire.OpRead:
		g := schema.GranuleID{Segment: schema.SegmentID(req.Seg), Key: req.Key}
		// Zero-copy when the engine offers it: the shared slice aliases
		// immutable engine memory and is consumed immediately — encoded
		// into the response frame before the next request can touch the
		// transaction. The defensive copy the public API owes its callers
		// happens client-side, in the connection's reader.
		if sr, ok := t.(cc.SharedReader); ok {
			return readResponse(sr.ReadShared(g))
		}
		return readResponse(t.Read(g))

	case wire.OpWrite:
		if len(req.Value) > wire.MaxValue {
			return errResponse(fmt.Errorf("server: value of %d bytes exceeds MaxValue (%d)", len(req.Value), wire.MaxValue))
		}
		err = t.Write(schema.GranuleID{Segment: schema.SegmentID(req.Seg), Key: req.Key}, req.Value)

	case wire.OpCommit:
		err = t.Commit()
		s.dropTxn(req.Txn)

	case wire.OpAbort:
		err = t.Abort()
		s.dropTxn(req.Txn)

	case wire.OpBatch:
		return s.handleBatch(req, t)
	}
	if err != nil {
		return errResponse(err)
	}
	return wire.Response{Status: wire.StatusOK}
}

// readResponse answers a read. The embedded API distinguishes a missing
// granule ((nil, nil)) from an empty value; Found carries that bit across
// the wire.
func readResponse(val []byte, err error) wire.Response {
	if err != nil {
		return errResponse(err)
	}
	return wire.Response{Status: wire.StatusOK, Found: val != nil, Value: val}
}

// handleBatch executes an OpBatch request: the declared operations run in
// order against one open transaction, stopping at the first error (whose
// typed status is preserved, with the failing index prefixed to the
// message — ops before it have been applied, exactly as if sent
// individually). The accumulated response size is guarded against
// MaxFrame so a batch of large reads degrades into a typed error, not a
// dead connection.
func (s *session) handleBatch(req *wire.Request, t cc.Txn) wire.Response {
	sr, shared := t.(cc.SharedReader)
	results := make([]wire.BatchResult, 0, len(req.Batch))
	respSize := 32 // header + count headroom
	for i := range req.Batch {
		op := &req.Batch[i]
		g := schema.GranuleID{Segment: schema.SegmentID(op.Seg), Key: op.Key}
		if op.Write {
			if len(op.Value) > wire.MaxValue {
				return batchErrResponse(i, fmt.Errorf("server: value of %d bytes exceeds MaxValue (%d)", len(op.Value), wire.MaxValue))
			}
			if err := t.Write(g, op.Value); err != nil {
				return batchErrResponse(i, err)
			}
			results = append(results, wire.BatchResult{Write: true})
			respSize++
			continue
		}
		// Zero-copy read, same contract as OpRead: the shared slice is
		// encoded inside this transaction's serial section.
		var val []byte
		var err error
		if shared {
			val, err = sr.ReadShared(g)
		} else {
			val, err = t.Read(g)
		}
		if err != nil {
			return batchErrResponse(i, err)
		}
		respSize += 6 + len(val)
		if respSize > wire.MaxFrame {
			return batchErrResponse(i, fmt.Errorf("server: batch response exceeds MaxFrame (%d); split the batch", wire.MaxFrame))
		}
		results = append(results, wire.BatchResult{Found: val != nil, Value: val})
	}
	s.srv.batchOps.Observe(int64(len(req.Batch)))
	return wire.Response{Status: wire.StatusOK, Batch: results}
}

// batchErrResponse maps a batch operation's error onto the wire, keeping
// the typed status and naming the failing index.
func batchErrResponse(i int, err error) wire.Response {
	resp := errResponse(err)
	resp.Message = fmt.Sprintf("batch op %d: %s", i, resp.Message)
	return resp
}

// beginResponse registers a freshly begun transaction with the session and
// encodes the handle the client will use to address it. waitFree marks a
// read-only transaction of an engine that declared cc.CapWaitFreeReadOnly.
func (s *session) beginResponse(t cc.Txn, err error, waitFree bool) wire.Response {
	if err != nil {
		return errResponse(err)
	}
	id := uint64(t.ID())
	upd, _ := t.(inlineTxn)
	s.tmu.Lock()
	s.txns[id] = &sessTxn{t: t, waitFree: waitFree, upd: upd}
	s.tmu.Unlock()
	s.srv.txnsOpen.Add(1)
	return wire.Response{Status: wire.StatusOK, Txn: id, Class: int32(t.Class())}
}

func (s *session) dropTxn(id uint64) {
	s.tmu.Lock()
	_, ok := s.txns[id]
	if ok {
		delete(s.txns, id)
	}
	s.tmu.Unlock()
	if ok {
		s.srv.txnsOpen.Add(-1)
	}
}

// teardown ends the session: every still-open transaction is force-aborted
// with reaper semantics (releasing held versions, gates, and wall floors
// immediately rather than waiting for its deadline), the connection is
// closed, and the session is deregistered. Engines without the ForceAbort
// capability get a plain Abort, which releases locks/versions through the
// normal path — still counted as an orphan cleanup when it lands.
func (s *session) teardown() {
	// Reap BEFORE quiescing: an in-flight operation can be blocked inside
	// the engine on a transaction this same session owns (an MVTO read
	// waiting on a sibling's uncommitted write). Waiting for it first would
	// deadlock until the engine reaper's deadline; aborting the owners
	// resolves those waits now. Force-abort is reaper machinery and is safe
	// against concurrently running operations on the same transaction.
	s.reapOpenTxns()
	// Quiesce the pipeline: every admitted request finishes and sends its
	// response; then flush what the session goroutine itself buffered, so
	// whatever exit serve took, the peer gets every response it can still
	// receive.
	s.inflight.Wait()
	s.fw.Flush()
	// Second pass: an in-flight begin that completed after the first reap
	// registered a fresh transaction nobody will ever finish.
	s.reapOpenTxns()
	s.conn.Close()
	s.srv.removeSession(s)
}

// reapOpenTxns force-aborts every transaction the session currently has
// open, with reaper semantics where the engine offers them.
func (s *session) reapOpenTxns() {
	s.tmu.Lock()
	open := make(map[uint64]cc.Txn, len(s.txns))
	for id, st := range s.txns {
		open[id] = st.t
	}
	s.tmu.Unlock()
	for id, t := range open {
		switch {
		case s.srv.forceAbort != nil && s.srv.forceAbort.ForceAbort(cc.TxnID(id)):
			s.srv.forceAborts.Add(1)
		case s.srv.forceAbort != nil:
			// Already finished (a racing reaper or engine close); Abort is
			// a no-op on a finished transaction but tidies the non-reaped
			// paths.
			t.Abort()
		default:
			if err := t.Abort(); err == nil {
				s.srv.forceAborts.Add(1)
			}
		}
		s.dropTxn(id)
	}
}

// errResponse maps an engine error onto the wire status taxonomy.
func errResponse(err error) wire.Response {
	st, reason, msg := wire.StatusOf(err)
	return wire.Response{Status: st, Reason: reason, Message: msg}
}

func unknownTxn(id uint64) wire.Response {
	return wire.Response{Status: wire.StatusError,
		Message: fmt.Sprintf("server: no open transaction %d on this connection", id)}
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

func isEOF(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}
