// Package client is the Go client for the networked HDD service
// (internal/server, cmd/hddserver). It exposes the same Txn-shaped API as
// the embedded engine — Begin/BeginReadOnly/BeginReadOnlyFor return an
// hdd.Txn — so code written against the library, including hdd.Run /
// hdd.RunCtx retry loops, works unchanged against a remote engine:
//
//	c, err := client.Dial("127.0.0.1:7070")
//	// handle err
//	defer c.Close()
//	err = hdd.Run(c, postClass, func(t hdd.Txn) error {
//		v, err := t.Read(g)
//		if err != nil {
//			return err
//		}
//		return t.Write(g, next(v))
//	}, hdd.RetryPolicy{})
//
// Engine aborts arrive as real abort errors — hdd.IsAbort reports true for
// them, exactly as with the embedded engine — and a shut-down server
// surfaces hdd.ErrEngineClosed.
//
// # Connections
//
// The client multiplexes every transaction over a small fixed set of TCP
// connections (WithConns): each request carries a fresh tag, one reader
// goroutine per connection hands each response to the caller its tag
// names, and concurrent callers' frames share socket writes. A transaction
// stays on the connection that began it — the server scopes a transaction
// to its session — but never owns it, so any number of concurrent
// transactions ride the same few sockets. A connection that fails is
// closed, every call waiting on it gets the error, and the next call that
// lands on its slot redials. Dropping the client (or crashing) closes the
// connections, and the server force-aborts any transactions left open — no
// explicit hand-off is required, though calling Abort promptly is kinder
// to walls and GC.
//
// A value a read returns belongs to the caller. Values up to 1 KiB are
// carved from an 8 KiB chunk per connection, and a retained value keeps
// its chunk alive: copy a small value to keep it long without the chunk.
package client

import (
	"fmt"
	"net"
	"time"

	"sync"
	"sync/atomic"

	"hdd"
	"hdd/internal/wire"
)

// Option configures a Client.
type Option func(*options)

type options struct {
	dialTimeout    time.Duration
	requestTimeout time.Duration
	conns          int
}

// WithDialTimeout bounds each TCP dial. Default 5s.
func WithDialTimeout(d time.Duration) Option { return func(o *options) { o.dialTimeout = d } }

// WithRequestTimeout bounds each request round-trip, including any time
// the server spends blocked in a Protocol B read on the transaction's
// behalf. Default 30s, also for d <= 0; it should comfortably exceed the
// server's transaction timeout.
func WithRequestTimeout(d time.Duration) Option { return func(o *options) { o.requestTimeout = d } }

// WithConns sets how many multiplexed connections the client spreads its
// transactions over. A handful is plenty: every transaction
// shares them via tagged frames, and more sockets mostly just dilute the
// server's write coalescing. Default 4.
func WithConns(n int) Option { return func(o *options) { o.conns = n } }

// Client is a multiplexed connection set to one HDD server. It is safe
// for concurrent use; the transactions it returns are not (a transaction
// belongs to one goroutine, as with the embedded engine).
type Client struct {
	addr string
	opt  options

	// info caches the Hello exchanged at Dial.
	info ServerInfo

	closed atomic.Bool // written under smu

	// The multiplexed connection set: a fixed slot array, picked
	// round-robin, redialed lazily when a conn dies.
	smu   sync.Mutex
	slots []*mconn
	next  atomic.Uint64
}

// Client satisfies hdd.Beginner, so hdd.Run / hdd.RunCtx accept it.
var _ hdd.Beginner = (*Client)(nil)

// Dial connects to an HDD server: it opens the first multiplexed
// connection and exchanges Hello on it, which both identifies the backend
// (ServerInfo) and proves the peer speaks this client's wire version. The
// remaining connections are opened on demand.
func Dial(addr string, opts ...Option) (*Client, error) {
	o := options{dialTimeout: 5 * time.Second, conns: 4}
	for _, f := range opts {
		f(&o)
	}
	if o.conns < 1 {
		o.conns = 1
	}
	if o.requestTimeout <= 0 {
		// Unset or not positive: the deadline sweep and the write
		// deadline would fail every round trip at once.
		o.requestTimeout = 30 * time.Second
	}
	c := &Client{addr: addr, opt: o, slots: make([]*mconn, o.conns)}
	_, resp, err := c.call(&wire.Request{Op: wire.OpHello})
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("client: dialing %s: %w", addr, err)
	}
	c.info = ServerInfo{Engine: resp.EngineName, Caps: hdd.Capability(resp.Caps)}
	return c, nil
}

// ProtocolVersion reports the wire protocol version the client speaks.
func (c *Client) ProtocolVersion() int { return wire.Version2 }

// Begin starts an update transaction of the given class on the server.
func (c *Client) Begin(class hdd.ClassID) (hdd.Txn, error) {
	return c.begin(&wire.Request{Op: wire.OpBegin, Class: int32(class)})
}

// BeginReadOnly starts an ad-hoc read-only transaction (Protocol C).
func (c *Client) BeginReadOnly() (hdd.Txn, error) {
	return c.begin(&wire.Request{Op: wire.OpBeginReadOnly})
}

// BeginReadOnlyFor starts a read-only transaction declared to read only
// the given segments, letting the engine pick the freshest protocol the
// declaration allows. Engines without the scoped read-only capability
// answer hdd.ErrNotSupported.
func (c *Client) BeginReadOnlyFor(segments ...hdd.SegmentID) (hdd.Txn, error) {
	req := &wire.Request{Op: wire.OpBeginReadOnlyFor}
	for _, s := range segments {
		req.ReadSegs = append(req.ReadSegs, int32(s))
	}
	return c.begin(req)
}

// ServerInfo identifies the backend a server is fronting.
type ServerInfo struct {
	// Engine is the engine's name ("HDD", "MV2PL", ...).
	Engine string
	// Caps is the engine's capability set; check bits with Caps.Has before
	// using capability-gated calls like BeginReadOnlyFor.
	Caps hdd.Capability
}

// ServerInfo reports which engine the server fronts and which optional
// capabilities that engine backs, from the Hello exchanged at Dial.
func (c *Client) ServerInfo() (ServerInfo, error) { return c.info, nil }

// call sends a request that names no transaction over the next connection
// in the round-robin and returns that connection with the response; a
// non-OK response is returned as its error.
func (c *Client) call(req *wire.Request) (*mconn, wire.Response, error) {
	m, err := c.slot()
	if err != nil {
		return nil, wire.Response{}, err
	}
	resp, err := m.roundTrip(req)
	if err == nil {
		err = resp.Err()
	}
	return m, resp, err
}

func (c *Client) begin(req *wire.Request) (hdd.Txn, error) {
	m, resp, err := c.call(req)
	if err != nil {
		return nil, err
	}
	return &Txn{mc: m, id: resp.Txn, class: hdd.ClassID(resp.Class)}, nil
}

// Stats fetches the server's counter snapshot: engine counters (begins,
// commits, aborts, reaped_txns, …), server gauges (sessions_open,
// txns_open, force_aborts, …), and request-latency histogram summaries
// (commit_p99_ns, read_mean_ns, …). Durations are in nanoseconds.
func (c *Client) Stats() (map[string]int64, error) {
	_, resp, err := c.call(&wire.Request{Op: wire.OpStats})
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64, len(resp.Stats))
	for _, e := range resp.Stats {
		out[e.Name] = e.Value
	}
	return out, nil
}

// Close closes every connection the client owns, so the server promptly
// force-aborts any transactions still in flight; their Txn handles fail
// with transport errors afterwards. Close is idempotent.
func (c *Client) Close() error {
	c.smu.Lock()
	c.closed.Store(true)
	slots := make([]*mconn, 0, len(c.slots))
	for i, m := range c.slots {
		if m != nil {
			slots = append(slots, m)
		}
		c.slots[i] = nil
	}
	c.smu.Unlock()
	for _, m := range slots {
		// fail wakes every pending call with the terminal error and closes
		// the socket; the server's session teardown force-aborts whatever
		// transactions were left open.
		m.fail(errClientClosed)
	}
	return nil
}

// slot picks the next multiplexed connection round-robin (slot 0 first),
// lazily dialing a slot that is empty or whose conn died. No health probe
// is needed: a live mconn has a reader goroutine pinned to the socket, so
// silent death surfaces as a failed conn, not a stale entry.
func (c *Client) slot() (*mconn, error) {
	i := int((c.next.Add(1) - 1) % uint64(len(c.slots)))
	c.smu.Lock()
	m := c.slots[i]
	c.smu.Unlock()
	if c.closed.Load() {
		return nil, errClientClosed
	}
	if m != nil && !m.dead.Load() {
		return m, nil
	}

	// Dial outside the slot lock so one slow dial doesn't serialize every
	// other slot's traffic.
	nc, err := c.dialRaw()
	if err != nil {
		return nil, err
	}
	m = newMconn(c, nc, c.opt.requestTimeout)
	c.smu.Lock()
	if c.closed.Load() {
		c.smu.Unlock()
		nc.Close()
		return nil, errClientClosed
	}
	if cur := c.slots[i]; cur != nil && !cur.dead.Load() {
		// A racing caller already replaced the slot; use theirs.
		c.smu.Unlock()
		nc.Close()
		return cur, nil
	}
	c.slots[i] = m
	c.smu.Unlock()
	go m.readLoop()
	go m.sweep()
	return m, nil
}

// dropSlot evicts a dead conn from the slot table (called by mconn.fail)
// so the next request redials instead of reusing it.
func (c *Client) dropSlot(m *mconn) {
	c.smu.Lock()
	for i, cur := range c.slots {
		if cur == m {
			c.slots[i] = nil
		}
	}
	c.smu.Unlock()
}

// dialRaw opens one TCP connection with Nagle disabled: the protocol is
// request–response, and both ends coalesce frames explicitly, in their
// wire.FrameWriter.
func (c *Client) dialRaw() (net.Conn, error) {
	nc, err := net.DialTimeout("tcp", c.addr, c.opt.dialTimeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return nc, nil
}
