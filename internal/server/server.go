// Package server exposes a concurrency-control engine over a network: a
// net.Listener based concurrent server speaking the internal/wire
// protocol, with one session per connection, orphaned-transaction cleanup
// on disconnect, and graceful shutdown that drains sessions before closing
// the engine.
//
// # Backend contract
//
// The server depends on cc.Engine — Begin, BeginReadOnly, Stats, Close —
// and feature-detects everything else through the optional capability
// interfaces in internal/cc (DESIGN.md §12). Any of the repo's engines can
// be served: the HDD engine backs every capability; the baselines (2PL,
// MV2PL, TO, MVTO, SDD-1) back none. An opcode that needs a missing
// capability is answered with wire.StatusUnsupported — a typed status the
// client surfaces as cc.ErrNotSupported — never a panic. Clients can ask
// first: OpHello carries the engine's name and capability bits.
//
// # Session model
//
// A connection is a session, and the transactions it begins are
// addressable only by that session — there is no cross-connection
// transaction handoff. One goroutine per session reads and decodes frames,
// and the session pipelines them: requests naming the same transaction
// execute and are answered in arrival order, everything else may
// overtake. A frame that does not decode — one of another wire version
// included — is answered with one StatusError frame and the connection is
// dropped. The session goroutine itself
// executes what cannot block — a read-only transaction's operations when
// the engine declares cc.CapWaitFreeReadOnly — and flushes the responses
// when the burst it read is exhausted; anything that may wait goes through
// a per-transaction FIFO to a handler goroutine, at most
// Options.MaxPipeline in flight. Both paths write through one
// wire.FrameWriter, which coalesces concurrent responses into single
// socket writes and drops a peer that stops reading after
// Options.WriteTimeout (pipeline.go, DESIGN.md §15).
//
// # Orphaned transactions
//
// A client that disconnects — crash, kill -9, network partition closing
// the socket — with transactions still open would otherwise stall time
// walls and GC until the engine's reaper deadline fires. The session's
// teardown instead force-aborts every open transaction immediately via
// the engine's ForceAbort capability, which reuses the reaper's semantics:
// held versions, gates and wall floors are released and the kill is
// counted in Stats().ReapedTxns. Engines without the capability get a
// plain Abort, which releases locks/versions through the normal path.
//
// # Shutdown ordering
//
// Shutdown runs in three phases, strictly before Engine.Close so no
// session ever races a closing engine: (1) stop accepting and reject new
// Begin requests with StatusEngineClosed; (2) drain — sessions whose
// transactions are all finished are closed, sessions with open
// transactions keep serving so in-flight work can commit, until the
// context expires, at which point the stragglers are force-closed (their
// transactions force-aborted); (3) Engine.Close.
package server

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hdd/internal/cc"
	"hdd/internal/metrics"
	"hdd/internal/obs"
	"hdd/internal/wire"
)

// Options tunes a Server. The zero value is usable.
type Options struct {
	// IdleTimeout closes a session that sends no request for this long,
	// bounding how long a silent-but-connected client can hold a session.
	// 0 means no idle limit (orphan cleanup then relies on the engine
	// reaper after TCP teardown, or on Shutdown).
	IdleTimeout time.Duration
	// WriteTimeout bounds how long a burst of responses may take to reach
	// the socket; a peer that stops reading is dropped when it expires.
	// Defaults to 10s.
	WriteTimeout time.Duration
	// MaxPipeline caps how many requests one session may have in flight; further frames block in the socket (backpressure). Defaults
	// to 256.
	MaxPipeline int
	// Logf receives connection-level diagnostics; nil discards them.
	Logf func(format string, args ...any)
	// Obs is the observability plane the server registers its request
	// latency and session families on — pass the same plane given to the
	// engine so one /metrics scrape covers both. Nil builds a private
	// plane (the Stats opcode still works; nothing serves it over HTTP
	// unless the caller exposes Obs()). A plane carries the families of
	// exactly one server.
	Obs *obs.Plane
}

func (o Options) withDefaults() Options {
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 10 * time.Second
	}
	if o.MaxPipeline <= 0 {
		o.MaxPipeline = 256
	}
	return o
}

// Server serves an HDD engine over the wire protocol. Create with New,
// start with Serve (one or more listeners), stop with Shutdown or Close.
type Server struct {
	eng  cc.Engine
	opts Options

	// Capabilities, feature-detected once at construction. caps is the
	// bitmask OpHello reports; the typed fields are nil when the engine
	// does not back the capability, and every use is nil-guarded — the
	// missing-capability answer is a typed status, never a panic.
	caps       cc.Capability
	waitFreeRO bool        // caps has CapWaitFreeReadOnly: read-only txns run inline
	tryBegin   tryBeginner // update begins that never wait run inline
	forceAbort cc.ForceAborter
	scopedRO   cc.ScopedReadOnlyBeginner
	activeTxns cc.ActiveTxnCounter
	dur        cc.DurabilityIntrospector
	checkpoint cc.Checkpointer

	// plane is the observability plane (DESIGN.md §13); reqLat, indexed
	// by wire.Op, holds the per-opcode request latency histograms —
	// request decode to response encode, no network time — that back
	// both /metrics and the Stats opcode's commit_*/read_* entries (one
	// source of truth).
	plane  *obs.Plane
	reqLat [wire.OpBatch + 1]*obs.Histogram

	// Pipeline instrumentation (DESIGN.md §15): current admitted-request
	// depth across all sessions, requests executed inline on session
	// goroutines, frame-writer flush accounting, and the batch-size
	// distribution.
	pipelineDepth   atomic.Int64
	inlineRequests  *metrics.Counter
	coalescedWrites *metrics.Counter
	writerFlushes   *metrics.Counter
	flushedFrames   *metrics.Counter
	batchOps        *obs.ValueHistogram

	connsAccepted atomic.Int64
	txnsOpen      atomic.Int64
	forceAborts   atomic.Int64

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	sessions  map[*session]struct{}
	draining  bool

	drained chan struct{} // closed when draining begins, for session selects
	wg      sync.WaitGroup

	closeEngineOnce sync.Once
}

// New builds a server over any open cc.Engine, feature-detecting the
// optional capabilities it backs. The server assumes ownership of the
// engine's shutdown: Shutdown/Close call Engine.Close after draining.
func New(eng cc.Engine, opts Options) *Server {
	s := &Server{
		eng:       eng,
		caps:      cc.CapabilitiesOf(eng),
		opts:      opts.withDefaults(),
		listeners: make(map[net.Listener]struct{}),
		sessions:  make(map[*session]struct{}),
		drained:   make(chan struct{}),
	}
	s.waitFreeRO = s.caps.Has(cc.CapWaitFreeReadOnly)
	s.tryBegin, _ = eng.(tryBeginner)
	s.forceAbort, _ = cc.AsForceAborter(eng)
	s.scopedRO, _ = cc.AsScopedReadOnlyBeginner(eng)
	s.activeTxns, _ = cc.AsActiveTxnCounter(eng)
	s.dur, _ = cc.AsDurabilityIntrospector(eng)
	s.checkpoint, _ = cc.AsCheckpointer(eng)
	s.plane = opts.Obs
	if s.plane == nil {
		s.plane = obs.NewPlane()
	}
	s.registerMetrics()
	return s
}

// opLabels maps each opcode to its /metrics label value.
var opLabels = map[wire.Op]string{
	wire.OpBegin:            "begin",
	wire.OpBeginReadOnly:    "begin_ro",
	wire.OpBeginReadOnlyFor: "begin_ro_for",
	wire.OpRead:             "read",
	wire.OpWrite:            "write",
	wire.OpCommit:           "commit",
	wire.OpAbort:            "abort",
	wire.OpStats:            "stats",
	wire.OpHello:            "hello",
	wire.OpBatch:            "batch",
}

// registerMetrics adds the server's families to the plane: one request
// latency summary per opcode plus session/connection gauges.
func (s *Server) registerMetrics() {
	r := s.plane.Reg
	for op, label := range opLabels {
		s.reqLat[op] = r.Histogram("hdd_server_request_seconds",
			"Request handling latency per opcode (decode to encode, no network time).",
			"op", label)
	}
	r.GaugeFunc("hdd_server_sessions_open",
		"Live client sessions.",
		func() int64 { return int64(s.OpenSessions()) })
	r.GaugeFunc("hdd_server_txns_open",
		"Transactions currently open across all sessions.",
		s.txnsOpen.Load)
	r.CounterFunc("hdd_server_conns_accepted_total",
		"Connections accepted since start.",
		s.connsAccepted.Load)
	r.CounterFunc("hdd_server_force_aborts_total",
		"Orphaned transactions force-aborted by session teardown.",
		s.forceAborts.Load)
	r.GaugeFunc("hdd_server_pipeline_depth",
		"Requests currently admitted and unanswered, across all sessions.",
		s.pipelineDepth.Load)
	s.inlineRequests = r.Counter("hdd_server_inline_requests_total",
		"Requests executed on the session goroutine because the engine could serve them without waiting: read-only transactions of a wait-free engine, and update begins, reads, writes, aborts and commits that needed no wait (a commit counts when its log record is appended; its fsync wait takes a goroutine). The rest take a handler goroutine.")
	s.coalescedWrites = r.Counter("hdd_server_coalesced_writes_total",
		"Socket flushes that carried more than one response frame.")
	s.writerFlushes = r.Counter("hdd_server_writer_flushes_total",
		"Socket flushes by sessions.")
	s.flushedFrames = r.Counter("hdd_server_flushed_frames_total",
		"Response frames written by sessions (flushed_frames/writer_flushes = mean coalescing factor).")
	s.batchOps = r.ValueHistogram("hdd_server_batch_ops",
		"Operations per OpBatch request.")
}

// observeFlush is every session's frame-writer hook: one socket flush
// carried this many response frames.
func (s *Server) observeFlush(frames int) {
	s.writerFlushes.Inc()
	s.flushedFrames.Add(int64(frames))
	if frames > 1 {
		s.coalescedWrites.Inc()
	}
}

// latencyFor returns the request-latency histogram for an opcode, nil for
// opcodes outside the table (a malformed op still gets a response; it just
// isn't timed).
func (s *Server) latencyFor(op wire.Op) *obs.Histogram {
	if op < 0 || int(op) >= len(s.reqLat) {
		return nil
	}
	return s.reqLat[op]
}

// Obs returns the server's observability plane, for serving over HTTP
// (cmd/hddserver wires plane.Handler(srv.Health()) to -metrics-addr).
func (s *Server) Obs() *obs.Plane { return s.plane }

// Health is the /healthz probe: not-ok once the engine reports the
// fail-stop degraded state. Engines without durability introspection are
// always healthy-with-caveat — the probe cannot see what is not exposed.
func (s *Server) Health() obs.Health {
	return func() (bool, string) {
		if s.dur == nil {
			return true, "ok (engine " + s.eng.Name() + " reports no durability introspection)"
		}
		if ds, ok := s.dur.DurabilityState(); ok && ds.Degraded {
			return false, "degraded: " + ds.Cause
		}
		return true, "ok"
	}
}

// Engine returns the served engine.
func (s *Server) Engine() cc.Engine { return s.eng }

// Capabilities returns the served engine's feature-detected capability set
// (what OpHello reports).
func (s *Server) Capabilities() cc.Capability { return s.caps }

// ListenAndServe listens on addr ("host:port") and serves until Shutdown
// or Close.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Serve accepts connections on l until the listener fails or the server
// shuts down, spawning one session goroutine per connection. It returns
// nil on shutdown. Serve may be called on several listeners concurrently.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		l.Close()
		return errors.New("server: already shut down")
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
		l.Close()
	}()

	for {
		conn, err := l.Accept()
		if err != nil {
			if s.isDraining() {
				return nil
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return err
		}
		s.connsAccepted.Add(1)
		sess := newSession(s, conn)
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.sessions[sess] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go sess.serve()
	}
}

// isDraining reports whether Shutdown/Close has begun.
func (s *Server) isDraining() bool {
	select {
	case <-s.drained:
		return true
	default:
		return false
	}
}

// Shutdown gracefully stops the server: it closes the listeners, rejects
// new Begin requests with StatusEngineClosed, lets sessions with open
// transactions keep serving until they finish or ctx expires (stragglers
// are then force-closed and their transactions force-aborted), and finally
// closes the engine. It returns ctx.Err() if the drain deadline forced any
// session, nil on a clean drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.beginDrain()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()

	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.forceCloseSessions()
		<-done
	}
	s.closeEngine()
	return err
}

// Close shuts down immediately: every session is force-closed (open
// transactions force-aborted) and the engine closed. Prefer Shutdown.
func (s *Server) Close() error {
	s.beginDrain()
	s.forceCloseSessions()
	s.wg.Wait()
	s.closeEngine()
	return nil
}

// closeEngine finishes shutdown once every session has drained: with
// durability enabled it takes a final snapshot — committed state then
// recovers from the snapshot alone, and the next boot replays an empty
// log — then closes the engine (which flushes and closes the WAL).
func (s *Server) closeEngine() {
	s.closeEngineOnce.Do(func() {
		if s.checkpoint != nil {
			if err := s.checkpoint.Snapshot(); err != nil {
				s.logf("server: final snapshot: %v", err)
			}
		}
		if err := s.eng.Close(); err != nil {
			s.logf("server: engine close: %v", err)
		}
	})
}

// beginDrain flips the server into draining mode: listeners close, idle
// sessions are interrupted so they notice the drain, and new transactions
// are refused.
func (s *Server) beginDrain() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.drained)
		for l := range s.listeners {
			l.Close()
		}
		for sess := range s.sessions {
			sess.interrupt()
		}
	}
	s.mu.Unlock()
}

// forceCloseSessions tears down every remaining session; their teardown
// force-aborts the transactions they still hold.
func (s *Server) forceCloseSessions() {
	s.mu.Lock()
	for sess := range s.sessions {
		sess.forceClose()
	}
	s.mu.Unlock()
}

func (s *Server) removeSession(sess *session) {
	s.mu.Lock()
	delete(s.sessions, sess)
	s.mu.Unlock()
}

// OpenSessions reports the number of live sessions, for tests and the
// Stats wire request.
func (s *Server) OpenSessions() int {
	s.mu.Lock()
	n := len(s.sessions)
	s.mu.Unlock()
	return n
}

// OpenTxns reports the number of transactions currently open across all
// sessions.
func (s *Server) OpenTxns() int64 { return s.txnsOpen.Load() }

// ForcedAborts reports how many orphaned transactions session teardown has
// force-aborted.
func (s *Server) ForcedAborts() int64 { return s.forceAborts.Load() }

// statEntries snapshots the engine counters, the server's own gauges, and
// the request-latency histograms as a flat name/value list for the Stats
// wire response. Durations are nanoseconds.
func (s *Server) statEntries() []wire.StatEntry {
	es := s.eng.Stats()
	entries := []wire.StatEntry{
		{Name: "begins", Value: es.Begins},
		{Name: "commits", Value: es.Commits},
		{Name: "aborts", Value: es.Aborts},
		{Name: "reads", Value: es.Reads},
		{Name: "writes", Value: es.Writes},
		{Name: "read_registrations", Value: es.ReadRegistrations},
		{Name: "blocked_reads", Value: es.BlockedReads},
		{Name: "blocked_writes", Value: es.BlockedWrites},
		{Name: "rejected_reads", Value: es.RejectedReads},
		{Name: "rejected_writes", Value: es.RejectedWrites},
		{Name: "reaped_txns", Value: es.ReapedTxns},
		{Name: "timed_out_reads", Value: es.TimedOutReads},
		{Name: "durability_failures", Value: es.DurabilityFailures},
		{Name: "engine_caps", Value: int64(s.caps)},
		{Name: "conns_accepted", Value: s.connsAccepted.Load()},
		{Name: "sessions_open", Value: int64(s.OpenSessions())},
		{Name: "txns_open", Value: s.txnsOpen.Load()},
		{Name: "force_aborts", Value: s.forceAborts.Load()},
		{Name: "pipeline_depth", Value: s.pipelineDepth.Load()},
		{Name: "inline_requests", Value: s.inlineRequests.Load()},
		{Name: "writer_flushes", Value: s.writerFlushes.Load()},
		{Name: "coalesced_writes", Value: s.coalescedWrites.Load()},
		{Name: "flushed_frames", Value: s.flushedFrames.Load()},
	}
	if s.activeTxns != nil {
		entries = append(entries, wire.StatEntry{Name: "active_txns", Value: int64(s.activeTxns.ActiveTxns())})
	}
	entries = appendHistogram(entries, "commit", s.reqLat[wire.OpCommit])
	entries = appendHistogram(entries, "read", s.reqLat[wire.OpRead])
	if s.dur != nil {
		if ds, ok := s.dur.DurabilityState(); ok {
			for _, kv := range ds.Counters {
				entries = append(entries, wire.StatEntry{Name: kv.Name, Value: kv.Value})
			}
			// degraded is 0/1 rather than a counter: the fail-stop flag clients
			// and operators poll for (DESIGN.md §11).
			degraded := int64(0)
			if ds.Degraded {
				degraded = 1
			}
			entries = append(entries, wire.StatEntry{Name: "durability_degraded", Value: degraded})
		}
	}
	return entries
}

// appendHistogram flattens one request-latency histogram (the same one
// /metrics renders as a summary) into stat entries named
// <prefix>_{count,mean_ns,p50_ns,p99_ns,max_ns}.
func appendHistogram(entries []wire.StatEntry, prefix string, h *obs.Histogram) []wire.StatEntry {
	return append(entries,
		wire.StatEntry{Name: prefix + "_count", Value: h.Count()},
		wire.StatEntry{Name: prefix + "_mean_ns", Value: int64(h.Mean())},
		wire.StatEntry{Name: prefix + "_p50_ns", Value: int64(h.Quantile(0.50))},
		wire.StatEntry{Name: prefix + "_p99_ns", Value: int64(h.Quantile(0.99))},
		wire.StatEntry{Name: prefix + "_max_ns", Value: int64(h.Max())},
	)
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}
