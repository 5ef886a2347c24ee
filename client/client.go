// Package client is the Go client for the networked HDD service
// (internal/server, cmd/hddserver). It exposes the same Txn-shaped API as
// the embedded engine — Begin/BeginReadOnly/BeginAdHocFor return an
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
// The client pools TCP connections. A transaction pins one connection from
// Begin until Commit/Abort (requests on a connection are serialized by the
// server), after which the connection returns to the pool; Stats and
// concurrent transactions draw their own connections. Dropping the client
// (or crashing) closes the connections, and the server force-aborts any
// transactions left open — no explicit hand-off is required, though
// calling Abort promptly is kinder to walls and GC.
package client

import (
	"bufio"
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
	maxIdle        int
	conns          int
	forceV1        bool
}

// WithDialTimeout bounds each TCP dial. Default 5s.
func WithDialTimeout(d time.Duration) Option { return func(o *options) { o.dialTimeout = d } }

// WithRequestTimeout bounds each request round-trip, including any time
// the server spends blocked in a Protocol B read on the transaction's
// behalf. Default 30s; it should comfortably exceed the server's
// transaction timeout.
func WithRequestTimeout(d time.Duration) Option { return func(o *options) { o.requestTimeout = d } }

// WithMaxIdleConns caps the pooled idle connections (protocol v1 mode
// only; a v2 client uses the fixed multiplexed set — see WithConns).
// Default 8.
func WithMaxIdleConns(n int) Option { return func(o *options) { o.maxIdle = n } }

// WithConns sets how many multiplexed connections a protocol-v2 client
// spreads its transactions over. A handful is plenty: every transaction
// shares them via tagged frames, and more sockets mostly just dilute the
// server's write coalescing. Default 4.
func WithConns(n int) Option { return func(o *options) { o.conns = n } }

// WithProtocolV1 pins the client to wire protocol version 1 — one
// synchronous request–response per round trip, one pinned connection per
// transaction — skipping version negotiation. Mainly for interop tests
// and talking to old servers through picky middleboxes; negotiation
// normally handles old servers by itself.
func WithProtocolV1() Option { return func(o *options) { o.forceV1 = true } }

// Client is a pooled connection to one HDD server. It is safe for
// concurrent use; the transactions it returns are not (a transaction
// belongs to one goroutine, as with the embedded engine).
type Client struct {
	addr string
	opt  options

	// proto is the negotiated wire protocol version: 2 when the server
	// answered the v2 Hello in kind, 1 otherwise (old server, or
	// WithProtocolV1). Fixed at Dial.
	proto int
	// info caches the Hello exchanged during negotiation.
	info ServerInfo

	mu     sync.Mutex
	free   []*conn
	conns  map[*conn]struct{} // every live connection, pooled or pinned
	closed atomic.Bool        // written under mu

	// The protocol-v2 multiplexed connection set: a fixed slot array,
	// picked round-robin, redialed lazily when a conn dies.
	smu   sync.Mutex
	slots []*mconn
	next  atomic.Uint64
}

// Client satisfies hdd.Beginner, so hdd.Run / hdd.RunCtx accept it.
var _ hdd.Beginner = (*Client)(nil)

// Dial connects to an HDD server and negotiates the protocol version: it
// sends a version-2 Hello on the first connection. A v2 server answers in
// kind and the client runs multiplexed — many concurrent transactions
// tag-demultiplexed over a small fixed connection set. A v1 server
// rejects the tagged frame (and drops the connection, which is expected
// and harmless); the client then redials and speaks classic v1, one
// pinned connection per transaction — so old servers work unchanged.
func Dial(addr string, opts ...Option) (*Client, error) {
	o := options{dialTimeout: 5 * time.Second, requestTimeout: 30 * time.Second, maxIdle: 8, conns: 4}
	for _, f := range opts {
		f(&o)
	}
	if o.conns < 1 {
		o.conns = 1
	}
	c := &Client{addr: addr, opt: o, conns: make(map[*conn]struct{})}
	if o.forceV1 {
		c.proto = 1
		cn, err := c.dial()
		if err != nil {
			return nil, fmt.Errorf("client: dialing %s: %w", addr, err)
		}
		c.put(cn)
		return c, nil
	}
	if err := c.negotiate(); err != nil {
		return nil, fmt.Errorf("client: dialing %s: %w", addr, err)
	}
	return c, nil
}

// negotiate performs the version handshake on a fresh connection (see
// Dial). On the v2 path the handshake socket is kept as the first
// multiplexed slot.
func (c *Client) negotiate() error {
	nc, err := c.dialRaw()
	if err != nil {
		return err
	}
	br := bufio.NewReader(nc)
	bw := bufio.NewWriter(nc)
	nc.SetDeadline(time.Now().Add(c.opt.requestTimeout))
	hello := wire.AppendRequest2(nil, &wire.Request{Op: wire.OpHello, Tag: 1})
	if err := wire.WriteFrame(bw, hello); err == nil {
		err = bw.Flush()
	} else {
		nc.Close()
		return err
	}
	if err != nil {
		nc.Close()
		return err
	}
	payload, err := wire.ReadFrame(br, nil)
	if err != nil {
		nc.Close()
		return err
	}
	if wire.PayloadVersion(payload) == wire.Version2 {
		resp, err := wire.DecodeResponse2(wire.OpHello, payload)
		if err != nil {
			nc.Close()
			return err
		}
		if err := resp.Err(); err != nil {
			nc.Close()
			return err
		}
		c.proto = 2
		c.info = ServerInfo{Engine: resp.EngineName, Caps: hdd.Capability(resp.Caps)}
		c.slots = make([]*mconn, c.opt.conns)
		nc.SetDeadline(time.Time{})
		m := newMconn(c, nc, br, c.opt.requestTimeout)
		c.slots[0] = m
		go m.readLoop()
		return nil
	}
	// A version-1 payload answering a version-2 Hello: an old server,
	// which reported a protocol error and is dropping this connection.
	// Expected — fall back to v1 on a fresh connection.
	if _, err := wire.DecodeResponse(wire.OpHello, payload); err != nil {
		nc.Close()
		return err
	}
	nc.Close()
	c.proto = 1
	cn, err := c.dial()
	if err != nil {
		return err
	}
	c.put(cn)
	return nil
}

// ProtocolVersion reports the wire protocol version negotiated at Dial
// (1 or 2).
func (c *Client) ProtocolVersion() int { return c.proto }

// Begin starts an update transaction of the given class on the server.
func (c *Client) Begin(class hdd.ClassID) (hdd.Txn, error) {
	return c.begin(&wire.Request{Op: wire.OpBegin, Class: int32(class)})
}

// BeginReadOnly starts an ad-hoc read-only transaction (Protocol C).
func (c *Client) BeginReadOnly() (hdd.Txn, error) {
	return c.begin(&wire.Request{Op: wire.OpBeginReadOnly})
}

// BeginAdHocFor starts a §7.1 ad-hoc update transaction writing writeSeg
// and reading only the declared segments; the server drains the conflicting
// classes before it returns.
func (c *Client) BeginAdHocFor(writeSeg hdd.SegmentID, reads ...hdd.SegmentID) (hdd.Txn, error) {
	req := &wire.Request{Op: wire.OpBeginAdHocFor, WriteSeg: int32(writeSeg)}
	for _, r := range reads {
		req.ReadSegs = append(req.ReadSegs, int32(r))
	}
	return c.begin(req)
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
	// using capability-gated calls like BeginAdHocFor.
	Caps hdd.Capability
}

// ServerInfo asks the server (via the Hello request) which engine it
// serves and which optional capabilities that engine backs. On a v2
// client this is answered from the Hello exchanged at negotiation.
func (c *Client) ServerInfo() (ServerInfo, error) {
	if c.proto == 2 {
		return c.info, nil
	}
	cn, err := c.get()
	if err != nil {
		return ServerInfo{}, err
	}
	resp, err := cn.roundTrip(&wire.Request{Op: wire.OpHello})
	if err != nil {
		cn.close()
		return ServerInfo{}, err
	}
	c.put(cn)
	if err := resp.Err(); err != nil {
		return ServerInfo{}, err
	}
	return ServerInfo{Engine: resp.EngineName, Caps: hdd.Capability(resp.Caps)}, nil
}

func (c *Client) begin(req *wire.Request) (hdd.Txn, error) {
	if c.proto == 2 {
		m, err := c.slot()
		if err != nil {
			return nil, err
		}
		resp, err := m.roundTrip(req)
		if err != nil {
			return nil, err
		}
		if err := resp.Err(); err != nil {
			return nil, err
		}
		return &Txn{cl: c, mc: m, id: resp.Txn, class: hdd.ClassID(resp.Class)}, nil
	}
	cn, err := c.get()
	if err != nil {
		return nil, err
	}
	resp, err := cn.roundTrip(req)
	if err != nil {
		cn.close()
		return nil, err
	}
	if err := resp.Err(); err != nil {
		c.put(cn)
		return nil, err
	}
	return &Txn{cl: c, cn: cn, id: resp.Txn, class: hdd.ClassID(resp.Class)}, nil
}

// Stats fetches the server's counter snapshot: engine counters (begins,
// commits, aborts, reaped_txns, …), server gauges (sessions_open,
// txns_open, force_aborts, …), and request-latency histogram summaries
// (commit_p99_ns, read_mean_ns, …). Durations are in nanoseconds.
func (c *Client) Stats() (map[string]int64, error) {
	var resp wire.Response
	if c.proto == 2 {
		m, err := c.slot()
		if err != nil {
			return nil, err
		}
		resp, err = m.roundTrip(&wire.Request{Op: wire.OpStats})
		if err != nil {
			return nil, err
		}
	} else {
		cn, err := c.get()
		if err != nil {
			return nil, err
		}
		resp, err = cn.roundTrip(&wire.Request{Op: wire.OpStats})
		if err != nil {
			cn.close()
			return nil, err
		}
		c.put(cn)
	}
	if err := resp.Err(); err != nil {
		return nil, err
	}
	out := make(map[string]int64, len(resp.Stats))
	for _, e := range resp.Stats {
		out[e.Name] = e.Value
	}
	return out, nil
}

// Close closes every connection the client owns — pooled and pinned alike
// — so the server promptly force-aborts any transactions still in flight;
// their Txn handles fail with transport errors afterwards. Close is
// idempotent.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed.Store(true)
	all := make([]*conn, 0, len(c.conns))
	for cn := range c.conns {
		all = append(all, cn)
	}
	c.conns = make(map[*conn]struct{})
	c.free = nil
	c.mu.Unlock()
	for _, cn := range all {
		cn.nc.Close()
	}
	c.smu.Lock()
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

// slot picks the next multiplexed connection round-robin, lazily
// redialing a slot whose conn died. Unlike the v1 pool there is no
// health probe: a live mconn has a reader goroutine pinned to the socket,
// so silent death surfaces as a failed conn, not a stale pool entry.
func (c *Client) slot() (*mconn, error) {
	i := int(c.next.Add(1) % uint64(len(c.slots)))
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
	m = newMconn(c, nc, bufio.NewReader(nc), c.opt.requestTimeout)
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

// untrack forgets a connection that is being closed.
func (c *Client) untrack(cn *conn) {
	c.mu.Lock()
	delete(c.conns, cn)
	c.mu.Unlock()
}

// get pops a pooled connection — health-checking it first, so a restarted
// server never hands a caller a dead socket — or dials a fresh one.
func (c *Client) get() (*conn, error) {
	for {
		c.mu.Lock()
		if c.closed.Load() {
			c.mu.Unlock()
			return nil, errClientClosed
		}
		n := len(c.free)
		if n == 0 {
			c.mu.Unlock()
			return c.dial()
		}
		cn := c.free[n-1]
		c.free = c.free[:n-1]
		c.mu.Unlock()
		if cn.healthy() {
			return cn, nil
		}
		cn.close()
	}
}

// put returns a connection to the pool (closing it when it is broken, the
// pool is full, or the client closed). The broken check is the pool-level
// eviction guarantee: a conn that saw any wire or decode error can never
// be handed out again, whatever the calling code path did with it.
func (c *Client) put(cn *conn) {
	c.mu.Lock()
	if c.closed.Load() || cn.broken || len(c.free) >= c.opt.maxIdle {
		c.mu.Unlock()
		cn.close()
		return
	}
	c.free = append(c.free, cn)
	c.mu.Unlock()
}

// dialRaw opens one TCP connection with Nagle disabled (the protocol is
// request–response; coalescing happens explicitly, server-side).
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

func (c *Client) dial() (*conn, error) {
	nc, err := c.dialRaw()
	if err != nil {
		return nil, err
	}
	cn := newConn(nc, c.opt.requestTimeout)
	cn.cl = c
	c.mu.Lock()
	if c.closed.Load() {
		c.mu.Unlock()
		nc.Close()
		return nil, errClientClosed
	}
	c.conns[cn] = struct{}{}
	c.mu.Unlock()
	return cn, nil
}
