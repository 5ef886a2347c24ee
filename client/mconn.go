package client

// The multiplexed connection: many goroutines share one socket, each
// request carries a fresh tag, a single reader goroutine demultiplexes
// responses back to their callers by tag. This is what lets the client run
// many concurrent Txns over a small fixed connection set.

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
}

// writeBuf sizes a conn's write buffer. Request frames are small; a burst
// of them fits, and a large value passes through unbuffered.
const writeBuf = 4096

// mcall is one in-flight request awaiting its tagged response.
type mcall struct {
	op wire.Op
	ch chan mresult // buffered (1): delivery never blocks the reader
}

type mresult struct {
	resp wire.Response
	err  error
}

func newMconn(cl *Client, nc net.Conn, timeout time.Duration) *mconn {
	return &mconn{
		cl:      cl,
		nc:      nc,
		br:      bufio.NewReader(nc),
		fw:      wire.NewFrameWriter(nc, writeBuf, timeout, nil),
		timeout: timeout,
		pending: make(map[uint64]*mcall),
	}
}

// roundTrip sends one tagged request and waits for its response. Many
// goroutines may call it concurrently; responses are matched by tag, so
// the server answering out of order is fine. Any transport, protocol, or
// timeout failure kills the whole conn — every waiter gets the error, and
// the owning client redials a replacement lazily.
func (m *mconn) roundTrip(req *wire.Request) (wire.Response, error) {
	tag := m.tags.Add(1)
	req.Tag = tag
	call := &mcall{op: req.Op, ch: make(chan mresult, 1)}
	m.pmu.Lock()
	if m.dead.Load() {
		err := m.deadErr
		m.pmu.Unlock()
		return wire.Response{}, err
	}
	m.pending[tag] = call
	// Other calls in flight: whoever was woken by the same burst of
	// responses is about to send too, so let the frame writer yield for
	// them before it flushes. Alone, it flushes at once.
	shared := len(m.pending) > 1
	m.pmu.Unlock()

	bp := wire.GetBuffer()
	*bp = wire.AppendRequest2((*bp)[:0], req)
	err := m.fw.Send(*bp, shared)
	wire.PutBuffer(bp)
	if err != nil {
		m.fail(fmt.Errorf("client: sending %v: %w", req.Op, err))
		res := <-call.ch // fail delivered to every pending call, ours included
		return res.resp, res.err
	}

	timer := time.NewTimer(m.timeout)
	defer timer.Stop()
	select {
	case res := <-call.ch:
		return res.resp, res.err
	case <-timer.C:
		// Tags are never reused on a conn, so a late response could be
		// discarded safely — but a conn that missed a deadline is either
		// stalled or talking to a wedged server; kill it so every caller
		// fails fast instead of queueing behind it.
		m.fail(fmt.Errorf("client: %v response not received within %v", req.Op, m.timeout))
		res := <-call.ch
		return res.resp, res.err
	}
}

// readLoop is the conn's reader goroutine: frame in, tag out, deliver to
// the waiting call. Anything that breaks the demux invariants — an
// unknown tag, an undecodable frame — kills the conn: frame alignment or
// bookkeeping can no longer be trusted.
func (m *mconn) readLoop() {
	var rbuf []byte
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
		resp, err := wire.DecodeResponse2(call.op, payload)
		if err != nil {
			call.ch <- mresult{err: fmt.Errorf("client: %w", err)}
			m.fail(fmt.Errorf("client: %w", err))
			return
		}
		call.ch <- mresult{resp: resp}
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
