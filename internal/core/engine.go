// Package core implements the paper's primary contribution: the HDD
// concurrency-control engine of Hsu (1982) §4–5.
//
// Given a TST-legal partition, the engine runs
//
//   - Protocol A for an update transaction's reads outside its root segment:
//     serve the committed version with the largest write timestamp below the
//     activity-link threshold A_i^j(I(t)). No read timestamp, no lock, no
//     waiting — the threshold only admits versions whose writers had already
//     resolved when t initiated.
//   - Protocol B for accesses inside the root segment: multi-version
//     timestamp ordering (Reed'78). Reads register a read timestamp and may
//     wait for a pending version to resolve; writes are rejected (aborting
//     the transaction) when they arrive too late.
//   - Protocol C for ad-hoc read-only transactions: read below the most
//     recently released time wall (§5.2). No registration, no waiting.
//
// A variant of Protocol A is also provided for read-only transactions whose
// read set lies on a single critical path (§5, Figure 8): they run as a
// fictitious class below the lowest class of the path.
//
// # Layout
//
// The engine has two transaction types. updateTxn (update_txn.go) runs
// Protocols A and B for a class. readOnlyTxn (readonly_txn.go) reads below
// per-segment bounds fixed at begin: a released time wall under Protocol
// C, or a fictitious class's thresholds on a critical path. lifecycle.go
// holds the two begin paths, gc.go garbage collection, registry.go the
// striped in-flight registry, reaper.go the stuck-transaction reaper and
// durability.go the log, recovery, Snapshot and the class gate. DESIGN.md
// §8 maps every lock and atomic in these files and states the ordering
// rules between them.
//
// # Allocation
//
// A transaction allocates itself, one chunk its Read copies are carved
// from, and what the store keeps (each written value's copy, and a version
// array now and then). A value Read returns shares that per-transaction
// chunk with the transaction's other reads, so keeping it keeps the chunk
// (256 B) alive; ReadShared copies nothing. DESIGN.md §14.5 lists the
// objects and their size classes.
//
// # Fault tolerance
//
// The paper assumes well-behaved transactions: C_late_i(m) only becomes
// computable once every transaction initiated at or before m has resolved
// (§5.1), so a single stalled or abandoned update transaction pins I_old,
// freezes time-wall release, and stops garbage collection. The engine
// therefore carries a liveness layer the paper leaves implicit:
//
//   - Config.TxnTimeout gives every transaction a deadline. A Protocol B
//     read blocked on a pending version wakes on deadline expiry and
//     aborts with cc.ReasonTimedOut instead of waiting forever.
//   - A background reaper (see reaper.go) scans every TxnTimeout/4 and
//     force-aborts transactions still active past their deadline —
//     releasing their pending versions, activity-table entries, and
//     wall-floor acquisitions — which restores wall release and GC
//     progress after a client crash.
//   - Close is a real shutdown: it stops the reaper, wakes every blocked
//     waiter with cc.ErrEngineClosed, and fails subsequent Begin/Read/Write.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hdd/internal/activity"
	"hdd/internal/alink"
	"hdd/internal/cc"
	"hdd/internal/metrics"
	"hdd/internal/mvstore"
	"hdd/internal/obs"
	"hdd/internal/schema"
	"hdd/internal/vclock"
	"hdd/internal/vfs"
)

// RootProtocol selects the intra-root-segment synchronization of Protocol
// B. §4.2 allows either: "use the basic timestamp ordering protocol
// [Bernstein80] or the multi-version timestamp ordering protocol
// [Reed78]". Storage is multi-version either way — Protocols A and C need
// the version history of every segment — the choice only governs what an
// update transaction's *own-segment* reads do.
type RootProtocol uint8

const (
	// RootMVTO (default): own-segment reads are served the latest version
	// below the transaction's timestamp — old readers never get rejected.
	RootMVTO RootProtocol = iota
	// RootBasicTO: own-segment reads must see the globally latest
	// version; a transaction older than that version's writer is
	// rejected (read-too-late), as in single-version timestamp ordering.
	RootBasicTO
)

// Config parameterizes an Engine.
type Config struct {
	// Partition is the validated TST-legal decomposition. Required.
	Partition *schema.Partition
	// RootProtocol selects Protocol B's intra-root variant; defaults to
	// RootMVTO.
	RootProtocol RootProtocol
	// WallInterval is the pacing of time-wall releases in logical ticks
	// (§5.2 "at certain intervals"). Defaults to 256.
	WallInterval vclock.Time
	// GCEveryCommits runs version garbage collection and activity-history
	// pruning every N commits; 0 disables automatic GC.
	GCEveryCommits int64
	// Recorder observes the produced schedule; nil means no recording.
	Recorder cc.Recorder
	// TxnTimeout is the wall-clock deadline applied to every transaction.
	// A blocked Protocol B read wakes on expiry and aborts with
	// cc.ReasonTimedOut; the background reaper, scanning every
	// TxnTimeout/4 (at least 1ms), force-aborts transactions that stay
	// active past their deadline, restoring wall and GC progress after
	// client crashes. Zero disables deadlines and the reaper.
	TxnTimeout time.Duration
	// DataDir makes the engine durable (durability.go): every commit is
	// logged to a write-ahead log there before it is acknowledged, and
	// NewEngine recovers snapshot+log from it. Empty means memory-only.
	DataDir string
	// FS is the filesystem all durability I/O (WAL, snapshots, recovery,
	// directory syncs) goes through; nil means the real filesystem
	// (vfs.OS). Tests inject vfs.Faulty to simulate storage faults and
	// enumerate crash points (DESIGN.md §11).
	FS vfs.FS
	// SnapshotBytes is the log size past which the background snapshotter,
	// polling once a second, checkpoints the store and truncates the log.
	// Defaults to 8 MiB; negative disables automatic snapshots (Snapshot
	// can still be called explicitly).
	SnapshotBytes int64
	// Obs attaches an observability plane (DESIGN.md §13): the engine
	// registers its counters and metric families on the plane's registry
	// and records trace events into its ring. The engine counts either
	// way; without a plane it exposes and traces nothing. A plane carries
	// the families of exactly one engine.
	Obs *obs.Plane
}

// Engine is the HDD concurrency-control engine. It is safe for concurrent
// use.
type Engine struct {
	part  *schema.Partition
	clock *vclock.Clock
	store *mvstore.Store
	act   *activity.Set
	links *alink.Links
	walls *alink.WallManager
	rec   cc.Recorder

	// Counters (obs.go), one increment per event. ctr's Begins, Commits,
	// Aborts, Reads and ReadRegistrations stay zero: Stats sums those from
	// the labelled txns and reads, which /metrics exposes.
	ctr                 cc.Counters
	txns                []classCounts // by ClassID, then class="ro"
	reads               [numReadProtos]metrics.Counter
	gcPruned, gcVisited metrics.Counter
	// ring receives trace events, nil without a plane; beginSample is the
	// per-class cursor of the begin-window event stride.
	ring        *obs.Ring
	beginSample []atomic.Uint64

	// gate is held shared by each update transaction of its class and
	// exclusively by Snapshot; see durability.go.
	gate classGate

	rootProto RootProtocol

	gcEvery       int64
	commitCounter atomic.Int64
	gcRuns        atomic.Int64

	txnTimeout time.Duration

	// dur is the durability layer (durability.go); nil when the engine is
	// memory-only.
	dur *durability

	// closed is closed by Close; blocked waiters select on it, and
	// Begin/Read/Write fail once it is closed.
	closed    chan struct{}
	closeOnce sync.Once
	// bgWG joins the background goroutines (reaper, snapshotter).
	bgWG sync.WaitGroup

	// live registers every in-flight transaction for the reaper, striped
	// by TxnID; see registry.go.
	live liveRegistry
}

var _ cc.Engine = (*Engine)(nil)

// NewEngine builds an HDD engine over cfg.Partition.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Partition == nil {
		return nil, fmt.Errorf("core: Config.Partition is required")
	}
	if cfg.WallInterval <= 0 {
		cfg.WallInterval = 256
	}
	if cfg.Recorder == nil {
		cfg.Recorder = cc.NopRecorder{}
	}
	// §5.2: wall computation starts from a class of one of the lowest
	// levels. LowestClasses is never empty for a valid partition.
	start := cfg.Partition.LowestClasses()[0]
	n := cfg.Partition.NumClasses()
	act := activity.NewSet(n)
	links := alink.New(cfg.Partition, act)
	clock := vclock.NewClock()
	e := &Engine{
		part:        cfg.Partition,
		clock:       clock,
		store:       mvstore.New(),
		act:         act,
		links:       links,
		walls:       alink.NewWallManager(links, clock, cfg.WallInterval, start),
		rec:         cfg.Recorder,
		rootProto:   cfg.RootProtocol,
		gcEvery:     cfg.GCEveryCommits,
		txnTimeout:  cfg.TxnTimeout,
		txns:        make([]classCounts, n+1),
		closed:      make(chan struct{}),
		beginSample: make([]atomic.Uint64, n),
		gate:        make(classGate, n),
	}
	e.live.init()
	if cfg.Obs != nil {
		// Set before the durability layer so a degraded event raised
		// during recovery already has a ring to land in.
		e.ring = cfg.Obs.Events
		e.register(cfg.Obs.Reg)
	}
	if cfg.DataDir != "" {
		// Recovery runs to completion before NewEngine returns: no
		// transaction can begin against a half-recovered store.
		if err := e.initDurability(cfg); err != nil {
			return nil, err
		}
	}
	if cfg.TxnTimeout > 0 {
		e.bgWG.Add(1)
		go e.reaper(max(cfg.TxnTimeout/4, time.Millisecond))
	}
	return e, nil
}

// Name implements cc.Engine.
func (e *Engine) Name() string { return "HDD" }

// Close implements cc.Engine: it stops the background goroutines
// (reaper, snapshotter), wakes every blocked Protocol B waiter with
// cc.ErrEngineClosed, and fails subsequent Begin/Read/Write calls. With
// durability enabled it then flushes and closes the WAL; a transaction
// that commits after Close gets its memory effect but its commit returns
// a non-durable error. Close is idempotent.
func (e *Engine) Close() error {
	e.closeOnce.Do(func() {
		close(e.closed)
		e.bgWG.Wait()
		if e.dur != nil {
			e.dur.closeErr = e.dur.log.Close()
		}
	})
	if e.dur != nil {
		return e.dur.closeErr
	}
	return nil
}

// closedErr reports cc.ErrEngineClosed once Close has been called.
func (e *Engine) closedErr() error {
	select {
	case <-e.closed:
		return cc.ErrEngineClosed
	default:
		return nil
	}
}

// Partition returns the engine's partition.
func (e *Engine) Partition() *schema.Partition { return e.part }

// Clock returns the engine's logical clock.
func (e *Engine) Clock() *vclock.Clock { return e.clock }

// Store exposes the underlying multi-version store for tests and the GC
// ablation experiment.
func (e *Engine) Store() *mvstore.Store { return e.store }

// Links exposes the activity-link evaluator for tests.
func (e *Engine) Links() *alink.Links { return e.links }

// Walls exposes the time-wall manager for tests and experiments.
func (e *Engine) Walls() *alink.WallManager { return e.walls }

// deadlineFor converts a timeout into an absolute deadline; zero means no
// deadline.
func deadlineFor(timeout time.Duration) time.Time {
	if timeout <= 0 {
		return time.Time{}
	}
	return time.Now().Add(timeout)
}
