package client

// The multiplexed connection: many goroutines share one socket, each
// request carries a fresh tag, a single reader goroutine demultiplexes
// responses back to their callers by tag. This is what lets the client run
// many concurrent Txns over a small fixed connection set.
//
// A round trip allocates only the value it returns. A request waits in a
// pooled call cell whose reply channel is made once; each cell gets
// exactly one delivery, from the reader or from fail. No timer is armed
// per request: one deadline sweep per connection stamps each pending call
// with a deadline the first time it sees it, and fails the connection
// once any call is past its own. A call therefore fails between one and
// 1.25 request timeouts after it was sent. Read values are copied out of
// the frame into a per-connection chunk.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bufio"
	"net"

	"hdd/internal/wire"
)

// mconn is one multiplexed connection.
type mconn struct {
	cl      *Client // owner, for slot eviction (nil in tests)
	nc      net.Conn
	br      *bufio.Reader
	fw      *wire.FrameWriter // coalesces concurrent callers' frames
	timeout time.Duration

	tags atomic.Uint64 // tag allocator; tags are unique per conn lifetime

	pmu     sync.Mutex
	pending map[uint64]*mcall
	dead    atomic.Bool // written under pmu, with deadErr
	deadErr error
	done    chan struct{} // closed by fail: stops the sweep

	chunk []byte // readLoop only: where read values are carved from
}

const (
	// writeBuf sizes a conn's write buffer. Request frames are small; a
	// burst of them fits, and a large value passes through unbuffered.
	writeBuf = 4096
	// chunkSize and maxCarved: read values up to maxCarved bytes are
	// carved from a chunkSize chunk: one allocation serves many reads, and
	// short-lived copies do not scatter long-lived objects of their size
	// class over half-empty spans. A larger value gets its own allocation.
	chunkSize = 8 << 10
	maxCarved = 1 << 10
)

// mcall is one in-flight request awaiting its tagged response. Cells are
// pooled: the caller returns one once it has taken its single delivery.
type mcall struct {
	op       wire.Op
	deadline time.Time    // stamped by the sweep, under pmu
	ch       chan mresult // buffered (1): delivery never blocks the reader
}

type mresult struct {
	resp wire.Response
	err  error
}

var calls = sync.Pool{New: func() any { return &mcall{ch: make(chan mresult, 1)} }}

func newMconn(cl *Client, nc net.Conn, timeout time.Duration) *mconn {
	return &mconn{
		cl:      cl,
		nc:      nc,
		br:      bufio.NewReader(nc),
		fw:      wire.NewFrameWriter(nc, writeBuf, timeout, nil),
		timeout: timeout,
		pending: make(map[uint64]*mcall),
		done:    make(chan struct{}),
	}
}

// roundTrip sends one tagged request and waits for its response. Many
// goroutines may call it concurrently; responses are matched by tag, so
// the server answering out of order is fine. The request is flushed, or
// covered by the reader's Release, before roundTrip waits. Any transport,
// protocol, or timeout failure kills the whole conn — every waiter gets
// the error, and the owning client redials a replacement lazily.
func (m *mconn) roundTrip(req *wire.Request) (wire.Response, error) {
	tag := m.tags.Add(1)
	req.Tag = tag
	call := calls.Get().(*mcall)
	call.op, call.deadline = req.Op, time.Time{}
	m.pmu.Lock()
	if m.dead.Load() {
		err := m.deadErr
		m.pmu.Unlock()
		calls.Put(call)
		return wire.Response{}, err
	}
	m.pending[tag] = call
	// A caller woken by a burst of responses sends under the reader's
	// hold: it only appends, and the reader flushes for the burst
	// (readLoop). Outside a hold, other calls in flight may be about to
	// send too, so let the frame writer yield for them before it flushes.
	// Alone, it flushes at once.
	shared := len(m.pending) > 1
	m.pmu.Unlock()

	bp := wire.GetBuffer()
	*bp = wire.AppendRequest2((*bp)[:0], req)
	err := m.fw.Send(*bp, shared)
	wire.PutBuffer(bp)
	if err != nil {
		m.fail(fmt.Errorf("client: sending %v: %w", req.Op, err))
	}
	// The reader, or fail (a send error, the sweep, Close), delivers once.
	res := <-call.ch
	calls.Put(call)
	return res.resp, res.err
}

// sweep runs for the conn's life, every quarter timeout. Tags are never
// reused on a conn, so a late response could be discarded safely — but a
// conn that missed a deadline is either stalled or talking to a wedged
// server; fail it so every caller fails fast instead of queueing behind it.
func (m *mconn) sweep() {
	tick := time.NewTicker(m.timeout/4 + 1) // + 1: positive for any timeout
	defer tick.Stop()
	for {
		select {
		case <-m.done:
			return
		case <-tick.C:
		}
		var late wire.Op // read under pmu: a delivered cell is reused at once
		expired := false
		m.pmu.Lock()
		now := time.Now() // every call in pending was sent before now
		for _, call := range m.pending {
			if call.deadline.IsZero() {
				call.deadline = now.Add(m.timeout)
			} else if !expired && !now.Before(call.deadline) {
				late, expired = call.op, true
			}
		}
		m.pmu.Unlock()
		if expired {
			m.fail(fmt.Errorf("client: %v response not received within %v", late, m.timeout))
			return
		}
	}
}

// own copies a read value out of the frame buffer, carving it from the
// conn's chunk. The result is capped at its length, so a caller's append
// reallocates instead of writing over the next value.
func (m *mconn) own(v []byte) []byte {
	if len(v) > maxCarved {
		return append([]byte(nil), v...)
	}
	if cap(m.chunk)-len(m.chunk) < len(v) {
		m.chunk = make([]byte, 0, chunkSize)
	}
	off := len(m.chunk)
	m.chunk = append(m.chunk, v...)
	return m.chunk[off:len(m.chunk):len(m.chunk)]
}

// readLoop is the conn's reader goroutine: frame in, tag out, deliver to
// the waiting call. Anything that breaks the demux invariants — an
// unknown tag, an undecodable frame — kills the conn: frame alignment or
// bookkeeping can no longer be trusted.
//
// The reader flushes for the burst it wakes. While another complete frame
// is buffered it holds the frame writer, so the callers it wakes only
// append their next requests; after the burst's last delivery it releases
// the hold, which yields once and flushes them all in one write. Between
// the two it never blocks: the frames it reads are already buffered and
// each delivery goes into a one-slot channel.
func (m *mconn) readLoop() {
	var rbuf []byte
	holding := false
	for {
		payload, err := wire.ReadFrame(m.br, rbuf)
		if err != nil {
			m.fail(fmt.Errorf("client: reading response: %w", err))
			return
		}
		rbuf = payload[:cap(payload)]
		if len(payload) > 0 && payload[0] != wire.Version2 {
			m.fail(fmt.Errorf("client: server speaks wire version %d, this client requires %d", payload[0], wire.Version2))
			return
		}
		tag, err := wire.ResponseTag(payload)
		if err != nil {
			m.fail(fmt.Errorf("client: %w", err))
			return
		}
		m.pmu.Lock()
		call, ok := m.pending[tag]
		delete(m.pending, tag)
		m.pmu.Unlock()
		if !ok {
			m.fail(fmt.Errorf("client: response for unknown tag %d", tag))
			return
		}
		more := wire.FrameBuffered(m.br)
		if more && !holding {
			m.fw.Hold()
			holding = true
		}
		resp, err := wire.DecodeResponse2(call.op, payload)
		if err != nil {
			call.ch <- mresult{err: fmt.Errorf("client: %w", err)}
			m.fail(fmt.Errorf("client: %w", err))
			return
		}
		// The decoded values alias rbuf, which the next frame reuses.
		resp.Value = m.own(resp.Value)
		for i := range resp.Batch {
			resp.Batch[i].Value = m.own(resp.Batch[i].Value)
		}
		call.ch <- mresult{resp: resp}
		if holding && !more {
			holding = false
			if err := m.fw.Release(); err != nil {
				m.fail(fmt.Errorf("client: sending: %w", err))
				return
			}
		}
	}
}

// fail latches the conn dead exactly once: the socket closes (stopping
// the reader), every pending call receives err, and the owning client
// drops the conn from its slot table so the next request redials.
func (m *mconn) fail(err error) {
	m.pmu.Lock()
	if m.dead.Load() {
		m.pmu.Unlock()
		return
	}
	m.deadErr = err
	m.dead.Store(true)
	pend := m.pending
	m.pending = make(map[uint64]*mcall)
	m.pmu.Unlock()
	close(m.done)
	m.nc.Close()
	for _, call := range pend {
		call.ch <- mresult{err: err}
	}
	if m.cl != nil {
		m.cl.dropSlot(m)
	}
}

// errClientClosed is the terminal error Close leaves on every conn.
var errClientClosed = errors.New("client: closed")
